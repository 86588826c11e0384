//! Derive backend for the vendored `serde` shim.
//!
//! Parses the derive input with raw `proc_macro` tokens (no `syn` —
//! the build has no registry access) and supports exactly the shapes
//! the workspace uses:
//!
//! * named-field structs — an object, one key per field;
//! * newtype structs — transparent, the inner value;
//! * enums whose variants are all units — the variant name as a string;
//! * any other enum — an object tagged on `"k"` with the variant name,
//!   followed by the variant's fields (tuple fields are keyed `"0"`,
//!   `"1"`, …; a unit variant is the tag alone).
//!
//! Attributes: `#[serde(skip)]` on a named field (left out, and
//! `Default` on the way back in) and `#[serde(rename = "…")]` on a
//! variant or field (the tag or key to use instead of the name).

use proc_macro::{Delimiter, TokenStream, TokenTree};

#[proc_macro_derive(Serialize, attributes(serde))]
pub fn derive_serialize(input: TokenStream) -> TokenStream {
    let item = parse_item(input);
    render_serialize(&item)
        .parse()
        .expect("generated impl parses")
}

#[proc_macro_derive(Deserialize, attributes(serde))]
pub fn derive_deserialize(input: TokenStream) -> TokenStream {
    let item = parse_item(input);
    render_deserialize(&item)
        .parse()
        .expect("generated impl parses")
}

struct Field {
    /// The field's name, or its position for a tuple field.
    name: String,
    /// The object key it is stored under.
    key: String,
    skip: bool,
}

enum Fields {
    Unit,
    Named(Vec<Field>),
    Tuple(Vec<Field>),
}

struct Variant {
    name: String,
    tag: String,
    fields: Fields,
}

enum Item {
    Struct {
        name: String,
        fields: Fields,
    },
    Enum {
        name: String,
        variants: Vec<Variant>,
    },
}

type Tokens = std::iter::Peekable<proc_macro::token_stream::IntoIter>;

fn parse_item(input: TokenStream) -> Item {
    let mut it = input.into_iter().peekable();
    loop {
        match it.next().expect("derive input ended before struct/enum") {
            TokenTree::Punct(p) if p.as_char() == '#' => {
                it.next(); // the [...] attribute group
            }
            TokenTree::Ident(id) => {
                let kw = id.to_string();
                if kw != "struct" && kw != "enum" {
                    continue; // visibility etc.
                }
                let name = match it.next() {
                    Some(TokenTree::Ident(n)) => n.to_string(),
                    other => panic!("expected type name, got {other:?}"),
                };
                let body = match it.next() {
                    Some(TokenTree::Group(g)) => g,
                    other => panic!(
                        "serde shim derives support no generics or unit structs; got {other:?}"
                    ),
                };
                return match (kw.as_str(), body.delimiter()) {
                    ("struct", Delimiter::Brace) => Item::Struct {
                        name,
                        fields: Fields::Named(parse_fields(body.stream(), true)),
                    },
                    ("struct", Delimiter::Parenthesis) => {
                        let fields = parse_fields(body.stream(), false);
                        assert!(
                            fields.len() == 1,
                            "serde shim: tuple struct `{name}` must have exactly one field"
                        );
                        Item::Struct {
                            name,
                            fields: Fields::Tuple(fields),
                        }
                    }
                    ("enum", Delimiter::Brace) => Item::Enum {
                        name,
                        variants: parse_variants(body.stream()),
                    },
                    _ => panic!("serde shim: unsupported body for `{name}`"),
                };
            }
            _ => {}
        }
    }
}

/// What the `#[serde(...)]` attributes in front of a field or variant
/// say; other attributes (docs, `#[default]`) are consumed and ignored.
#[derive(Default)]
struct Attrs {
    skip: bool,
    rename: Option<String>,
}

fn parse_attrs(it: &mut Tokens) -> Attrs {
    let mut attrs = Attrs::default();
    while matches!(it.peek(), Some(TokenTree::Punct(p)) if p.as_char() == '#') {
        it.next();
        let Some(TokenTree::Group(g)) = it.next() else {
            panic!("expected [...] after #");
        };
        let mut inner = g.stream().into_iter();
        if !matches!(inner.next(), Some(TokenTree::Ident(id)) if id.to_string() == "serde") {
            continue;
        }
        let Some(TokenTree::Group(args)) = inner.next() else {
            panic!("expected serde(...)");
        };
        let mut args = args.stream().into_iter();
        while let Some(arg) = args.next() {
            match arg {
                TokenTree::Ident(id) if id.to_string() == "skip" => attrs.skip = true,
                TokenTree::Ident(id) if id.to_string() == "rename" => {
                    args.next(); // `=`
                    let lit = args.next().map(|l| l.to_string()).unwrap_or_default();
                    let text = lit
                        .strip_prefix('"')
                        .and_then(|l| l.strip_suffix('"'))
                        .unwrap_or_else(|| panic!("rename wants a plain string, got {lit}"));
                    attrs.rename = Some(text.to_string());
                }
                TokenTree::Punct(p) if p.as_char() == ',' => {}
                other => panic!("serde shim: unsupported attribute argument {other}"),
            }
        }
    }
    attrs
}

/// Parses the fields between a struct's or variant's delimiters:
/// `name: Type, ...` when `named`, else `Type, ...`.
fn parse_fields(body: TokenStream, named: bool) -> Vec<Field> {
    let mut fields = Vec::new();
    let mut it = body.into_iter().peekable();
    loop {
        let attrs = parse_attrs(&mut it);
        if matches!(it.peek(), Some(TokenTree::Ident(id)) if id.to_string() == "pub") {
            it.next();
            if matches!(
                it.peek(),
                Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis
            ) {
                it.next(); // pub(crate) etc.
            }
        }
        if it.peek().is_none() {
            break;
        }
        let name = if named {
            let name = match it.next() {
                Some(TokenTree::Ident(id)) => id.to_string(),
                other => panic!("expected field name, got {other:?}"),
            };
            match it.next() {
                Some(TokenTree::Punct(p)) if p.as_char() == ':' => {}
                other => panic!("expected ':' after field `{name}`, got {other:?}"),
            }
            name
        } else {
            assert!(!attrs.skip, "serde shim: skip is for named fields only");
            fields.len().to_string()
        };
        // Consume the type up to the next top-level comma. A `>`
        // joined to a preceding `-` is a return arrow, not a generic
        // close (e.g. `Box<dyn Fn(u64) -> u64>`).
        let mut depth = 0i32;
        let mut prev_dash = false;
        loop {
            let arrow_head = prev_dash;
            prev_dash = false;
            match it.next() {
                None => break,
                Some(TokenTree::Punct(p)) => match p.as_char() {
                    '<' => depth += 1,
                    '>' if !arrow_head => {
                        depth -= 1;
                        assert!(
                            depth >= 0,
                            "serde shim: unbalanced `>` in type of field `{name}`"
                        );
                    }
                    ',' if depth == 0 => break,
                    '-' => prev_dash = true,
                    _ => {}
                },
                Some(_) => {}
            }
        }
        fields.push(Field {
            key: attrs.rename.unwrap_or_else(|| name.clone()),
            name,
            skip: attrs.skip,
        });
    }
    fields
}

fn parse_variants(body: TokenStream) -> Vec<Variant> {
    let mut variants = Vec::new();
    let mut it = body.into_iter().peekable();
    loop {
        let attrs = parse_attrs(&mut it);
        let name = match it.next() {
            Some(TokenTree::Ident(id)) => id.to_string(),
            None => break,
            other => panic!("expected variant name, got {other:?}"),
        };
        let fields = match it.peek() {
            Some(TokenTree::Group(g)) => {
                let fields = match g.delimiter() {
                    Delimiter::Brace => Fields::Named(parse_fields(g.stream(), true)),
                    Delimiter::Parenthesis => Fields::Tuple(parse_fields(g.stream(), false)),
                    _ => panic!("unexpected group after variant `{name}`"),
                };
                it.next();
                fields
            }
            _ => Fields::Unit,
        };
        match it.next() {
            None => {}
            Some(TokenTree::Punct(p)) if p.as_char() == ',' => {}
            other => panic!("serde shim: expected `,` after variant `{name}`, got {other:?}"),
        }
        variants.push(Variant {
            tag: attrs.rename.unwrap_or_else(|| name.clone()),
            name,
            fields,
        });
    }
    variants
}

fn all_units(variants: &[Variant]) -> bool {
    variants.iter().all(|v| matches!(v.fields, Fields::Unit))
}

/// The binding a variant pattern gives field `f`.
fn binding(f: &Field) -> String {
    format!("__f{}", f.name)
}

/// `{ a: <expr>, .. }`, `(<expr>, ..)` or nothing, after the shape of
/// `fields` — a pattern when `expr` binds, a constructor body when it
/// reads.
fn shaped(fields: &Fields, expr: impl Fn(&Field) -> String) -> String {
    match fields {
        Fields::Unit => String::new(),
        Fields::Named(fs) => {
            let items: Vec<String> = fs
                .iter()
                .map(|f| format!("{}: {}", f.name, expr(f)))
                .collect();
            format!("{{ {} }}", items.join(", "))
        }
        Fields::Tuple(fs) => {
            let items: Vec<String> = fs.iter().map(expr).collect();
            format!("({})", items.join(", "))
        }
    }
}

/// Statements pushing each unskipped field onto the object `__o`;
/// `access` turns a field into the expression that borrows it.
fn push_fields(fields: &[Field], access: impl Fn(&Field) -> String) -> String {
    fields
        .iter()
        .filter(|f| !f.skip)
        .map(|f| {
            format!(
                "__o.push((::std::string::String::from(\"{}\"), \
                 ::serde::Serialize::to_value({})));",
                f.key,
                access(f)
            )
        })
        .collect()
}

/// The constructor body reading each field from the object `__v`.
fn read_fields(fields: &Fields) -> String {
    shaped(fields, |f| {
        if f.skip {
            "::std::default::Default::default()".to_string()
        } else {
            format!("::serde::field(__v, \"{}\")?", f.key)
        }
    })
}

/// Declares the object `__o` the pushes go to, sized for `fields` keys.
fn new_object(fields: usize) -> String {
    format!(
        "let mut __o: ::std::vec::Vec<(::std::string::String, ::serde::Value)> = \
         ::std::vec::Vec::with_capacity({fields});"
    )
}

fn render_serialize(item: &Item) -> String {
    let (name, body) = match item {
        Item::Struct {
            name,
            fields: Fields::Named(fs),
        } => {
            let pushes = push_fields(fs, |f| format!("&self.{}", f.name));
            (
                name,
                format!(
                    "{} {pushes} ::serde::Value::Object(__o)",
                    new_object(fs.len())
                ),
            )
        }
        Item::Struct { name, .. } => (name, "::serde::Serialize::to_value(&self.0)".to_string()),
        Item::Enum { name, variants } if all_units(variants) => {
            let arms: String = variants
                .iter()
                .map(|v| format!("{name}::{} => \"{}\",", v.name, v.tag))
                .collect();
            (
                name,
                format!(
                    "::serde::Value::Str(::std::string::String::from(match self {{ {arms} }}))"
                ),
            )
        }
        Item::Enum { name, variants } => {
            let widest = variants
                .iter()
                .map(|v| match &v.fields {
                    Fields::Unit => 0,
                    Fields::Named(fs) | Fields::Tuple(fs) => fs.len(),
                })
                .max()
                .unwrap_or(0);
            let arms: String = variants
                .iter()
                .map(|v| {
                    let pushes = match &v.fields {
                        Fields::Unit => String::new(),
                        Fields::Named(fs) | Fields::Tuple(fs) => push_fields(fs, binding),
                    };
                    format!(
                        "{name}::{} {} => {{ __o.push((::std::string::String::from(\"k\"), \
                         ::serde::Value::Str(::std::string::String::from(\"{}\")))); {pushes} }}",
                        v.name,
                        shaped(&v.fields, binding),
                        v.tag
                    )
                })
                .collect();
            (
                name,
                format!(
                    "{} match self {{ {arms} }} ::serde::Value::Object(__o)",
                    new_object(widest + 1)
                ),
            )
        }
    };
    format!(
        "impl ::serde::Serialize for {name} {{ \
         fn to_value(&self) -> ::serde::Value {{ {body} }} }}"
    )
}

fn render_deserialize(item: &Item) -> String {
    let (name, body) = match item {
        // A newtype reads its field from the whole value, not a key.
        Item::Struct {
            name,
            fields: Fields::Tuple(_),
        } => (
            name,
            format!("::std::result::Result::Ok({name}(::serde::Deserialize::from_value(__v)?))"),
        ),
        Item::Struct { name, fields } => (
            name,
            format!("::std::result::Result::Ok({name} {})", read_fields(fields)),
        ),
        Item::Enum { name, variants } => {
            let arms: String = variants
                .iter()
                .map(|v| {
                    format!(
                        "\"{}\" => ::std::result::Result::Ok({name}::{} {}),",
                        v.tag,
                        v.name,
                        read_fields(&v.fields)
                    )
                })
                .collect();
            // An all-unit enum is its tag; any other carries it as `k`.
            let tag = if all_units(variants) {
                "::std::option::Option::Some(__v)"
            } else {
                "__v.get(\"k\")"
            };
            (
                name,
                format!(
                    "match {tag} {{ \
                     ::std::option::Option::Some(::serde::Value::Str(__s)) => \
                     match __s.as_str() {{ {arms} \
                     __other => ::std::result::Result::Err(::serde::DeError::msg(\
                     ::std::format!(\"unknown {name} variant `{{}}`\", __other))), }}, \
                     _ => ::std::result::Result::Err(::serde::DeError::msg(\
                     \"expected a variant tag for enum {name}\")), }}"
                ),
            )
        }
    };
    format!(
        "impl ::serde::Deserialize for {name} {{ \
         fn from_value(__v: &::serde::Value) -> \
         ::std::result::Result<Self, ::serde::DeError> {{ {body} }} }}"
    )
}
