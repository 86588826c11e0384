//! Derive backend for the vendored `serde` shim.
//!
//! Parses the derive input with raw `proc_macro` tokens (no `syn` —
//! the build has no registry access) and emits one walk per type: a
//! `serialize` into any `serde::Sink` and a `deserialize` out of any
//! `serde::Source`. It supports exactly the shapes the workspace uses:
//!
//! * named-field structs — an object, one key per field;
//! * newtype structs — transparent, the inner value;
//! * enums whose variants are all units — the variant name as a string;
//! * any other enum — an object tagged on `"k"` with the variant name,
//!   followed by the variant's fields (tuple fields are keyed `"0"`,
//!   `"1"`, …; a unit variant is the tag alone).
//!
//! An object's fields may come in any order: the first occurrence of
//! a key counts and an unknown key's value is skipped. A tagged enum
//! whose `"k"` is not its first key is read whole into a tree first.
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

/// The walk writing an object: `"k"` and its `tag` first when there is
/// one, then each unskipped field behind its key; `access` turns a
/// field into the expression that borrows it.
fn write_object(tag: Option<&str>, fields: &[Field], access: impl Fn(&Field) -> String) -> String {
    let written: Vec<&Field> = fields.iter().filter(|f| !f.skip).collect();
    let begin = format!(
        "::serde::Sink::begin_object(__s, {});",
        written.len() + usize::from(tag.is_some())
    );
    let tag = tag
        .map(|tag| format!("::serde::Sink::key(__s, \"k\"); ::serde::Sink::str(__s, \"{tag}\");"))
        .unwrap_or_default();
    let fields: String = written
        .iter()
        .map(|f| {
            format!(
                "::serde::Sink::key(__s, \"{}\"); ::serde::Serialize::serialize({}, __s);",
                f.key,
                access(f)
            )
        })
        .collect();
    begin + &tag + &fields + "::serde::Sink::end_object(__s);"
}

/// The walk reading an open object's fields in any order into
/// `ctor`'s shape: the first occurrence of each key counts, and any
/// other key's value is skipped (checked, not built).
fn read_object(ctor: &str, fields: &Fields) -> String {
    let fs: &[Field] = match fields {
        Fields::Unit => &[],
        Fields::Named(fs) | Fields::Tuple(fs) => fs,
    };
    let read: Vec<&Field> = fs.iter().filter(|f| !f.skip).collect();
    let slots: String = read
        .iter()
        .map(|f| format!("let mut {} = ::std::option::Option::None;", binding(f)))
        .collect();
    let arms: String = read
        .iter()
        .map(|f| {
            format!(
                "\"{}\" if {b}.is_none() => \
                 {b} = ::std::option::Option::Some(::serde::Deserialize::deserialize(__s)?),",
                f.key,
                b = binding(f)
            )
        })
        .collect();
    let build = shaped(fields, |f| {
        if f.skip {
            "::std::default::Default::default()".to_string()
        } else {
            format!(
                "match {} {{ ::std::option::Option::Some(__x) => __x, \
                 ::std::option::Option::None => return ::std::result::Result::Err(\
                 ::serde::missing(\"{}\").into()) }}",
                binding(f),
                f.key
            )
        }
    });
    format!(
        "{slots} \
         while let ::std::option::Option::Some(__k) = ::serde::Source::key(__s)? {{ \
         match &*__k {{ {arms} _ => ::serde::Source::skip(__s)?, }} }} \
         ::std::result::Result::Ok({ctor} {build})"
    )
}

fn render_serialize(item: &Item) -> String {
    let (name, body) = match item {
        Item::Struct {
            name,
            fields: Fields::Named(fs),
        } => (
            name,
            write_object(None, fs, |f| format!("&self.{}", f.name)),
        ),
        Item::Struct { name, .. } => (
            name,
            "::serde::Serialize::serialize(&self.0, __s)".to_string(),
        ),
        Item::Enum { name, variants } if all_units(variants) => {
            let arms: String = variants
                .iter()
                .map(|v| format!("{name}::{} => \"{}\",", v.name, v.tag))
                .collect();
            (
                name,
                format!("::serde::Sink::str(__s, match self {{ {arms} }})"),
            )
        }
        Item::Enum { name, variants } => {
            let arms: String = variants
                .iter()
                .map(|v| {
                    let fs: &[Field] = match &v.fields {
                        Fields::Unit => &[],
                        Fields::Named(fs) | Fields::Tuple(fs) => fs,
                    };
                    format!(
                        "{name}::{} {} => {{ {} }}",
                        v.name,
                        shaped(&v.fields, binding),
                        write_object(Some(&v.tag), fs, binding)
                    )
                })
                .collect();
            (name, format!("match self {{ {arms} }}"))
        }
    };
    format!(
        "impl ::serde::Serialize for {name} {{ \
         fn serialize<__S: ::serde::Sink>(&self, __s: &mut __S) {{ {body} }} }}"
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
            format!("::std::result::Result::Ok({name}(::serde::Deserialize::deserialize(__s)?))"),
        ),
        Item::Struct { name, fields } => (
            name,
            format!("::serde::open_object(__s)?; {}", read_object(name, fields)),
        ),
        Item::Enum { name, variants } => {
            let unknown = format!(
                "__other => ::std::result::Result::Err(::serde::DeError::msg(\
                 ::std::format!(\"unknown {name} variant `{{}}`\", __other)).into()),"
            );
            if all_units(variants) {
                let arms: String = variants
                    .iter()
                    .map(|v| {
                        format!(
                            "\"{}\" => ::std::result::Result::Ok({name}::{}),",
                            v.tag, v.name
                        )
                    })
                    .collect();
                (
                    name,
                    format!(
                        "match ::serde::Source::atom(__s)? {{ \
                         ::serde::Atom::Str(__t) => match &*__t {{ {arms} {unknown} }}, \
                         _ => ::std::result::Result::Err(::serde::DeError::msg(\
                         \"expected a variant tag for enum {name}\").into()), }}"
                    ),
                )
            } else {
                let arms: String = variants
                    .iter()
                    .map(|v| {
                        format!(
                            "\"{}\" => {{ {} }}",
                            v.tag,
                            read_object(&format!("{name}::{}", v.name), &v.fields)
                        )
                    })
                    .collect();
                // A tree holds the object whose `"k"` was not first.
                (
                    name,
                    format!(
                        "match ::serde::Source::tag(__s)? {{ \
                         ::serde::Tagged::Tag(__t) => match &*__t {{ {arms} {unknown} }}, \
                         ::serde::Tagged::Buffered(__v) => \
                         <Self as ::serde::Deserialize>::from_value(&__v).map_err(::std::convert::From::from), }}"
                    ),
                )
            }
        }
    };
    format!(
        "impl ::serde::Deserialize for {name} {{ \
         fn deserialize<'de, __S: ::serde::Source<'de>>(__s: &mut __S) -> \
         ::std::result::Result<Self, __S::Error> {{ {body} }} }}"
    )
}
