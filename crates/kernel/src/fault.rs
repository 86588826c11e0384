//! Deterministic fault injection.
//!
//! A [`FaultPlan`] arms the kernel with faults that fire at
//! *deterministic* coordinates — a space's lineage path and its
//! per-space syscall ordinal — never wall-clock time or host
//! scheduling. Two runs of the same program under the same plan fault
//! at the identical kernel-mediated event, which is what makes faulted
//! runs replayable and crash-recovery conformance-checkable
//! (DESIGN.md §9).
//!
//! Every fault surfaces through existing, typed channels:
//!
//! | action                        | what the program observes          |
//! |-------------------------------|------------------------------------|
//! | [`FaultAction::KillKernel`]   | [`KernelError::Killed`] + shutdown |
//! | [`FaultAction::PanicVehicle`] | vehicle panic → terminal `Trap(Panic)` via the PR 5 die-without-check-in path |
//! | [`FaultAction::FailOp`]       | [`KernelError::FaultInjected`]     |
//!
//! No new panics escape the kernel and no deadlocks are introduced: a
//! killed kernel tears down through the ordinary shutdown sweep, and a
//! panicked vehicle checks in as a deterministic trap exactly like any
//! other program panic.
//!
//! [`KernelError::Killed`]: crate::KernelError::Killed
//! [`KernelError::FaultInjected`]: crate::KernelError::FaultInjected

use std::sync::atomic::{AtomicBool, Ordering};

/// Where in the kernel a fault is injected.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
#[non_exhaustive]
pub enum FaultSite {
    /// The syscall entry gate (every `Put`/`Get`/`Ret`/device/
    /// checkpoint entry probes this site).
    Syscall,
    /// A root device read or write.
    Device,
    /// A kernel allocation (space/vehicle creation: `Put` and the Put
    /// half of `PutGet` probe this site).
    Alloc,
}

impl FaultSite {
    /// The static description [`KernelError::FaultInjected`] carries.
    ///
    /// [`KernelError::FaultInjected`]: crate::KernelError::FaultInjected
    pub fn label(self) -> &'static str {
        match self {
            FaultSite::Syscall => "injected syscall failure",
            FaultSite::Device => "injected device failure",
            FaultSite::Alloc => "injected allocation failure",
        }
    }
}

/// What happens when a fault fires.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
#[non_exhaustive]
pub enum FaultAction {
    /// Set the kernel-wide shutdown flag and fail the triggering
    /// syscall with [`KernelError::Killed`] — the whole run crashes
    /// mid-flight, leaving the trace recorded so far as the crash log.
    ///
    /// [`KernelError::Killed`]: crate::KernelError::Killed
    KillKernel,
    /// Panic the triggering execution vehicle. The existing
    /// `catch_unwind` + final-check-in machinery converts this into a
    /// terminal `Trap(Panic)` observed deterministically by the
    /// parent.
    PanicVehicle,
    /// Fail the triggering operation with
    /// [`KernelError::FaultInjected`] and keep running.
    ///
    /// [`KernelError::FaultInjected`]: crate::KernelError::FaultInjected
    FailOp,
}

/// One armed fault: a site, an action, and deterministic trigger
/// coordinates. An unset ordinal matches any syscall; the path is
/// always set, to the root's when no other is given, so a fault names
/// one space and fires at most once, at the same coordinate in every
/// run.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Fault {
    /// Injection site this fault arms.
    pub site: FaultSite,
    /// What firing does.
    pub action: FaultAction,
    /// Fire only in the space with this lineage path (e.g. `"/"` for
    /// the root, the default, or `"/3"` for its child number 3).
    pub path: String,
    /// Fire on the space's `n`-th syscall (0-based, counted per
    /// space).
    pub nth_syscall: Option<u64>,
}

impl Fault {
    /// A fault at `site` performing `action` in the root space, with no
    /// other trigger coordinates yet (it would fire at the root's first
    /// probe of the site).
    pub fn new(site: FaultSite, action: FaultAction) -> Fault {
        Fault {
            site,
            action,
            path: "/".to_string(),
            nth_syscall: None,
        }
    }

    /// Restricts the fault to the space with this lineage path.
    pub fn at_path(mut self, path: impl Into<String>) -> Fault {
        self.path = path.into();
        self
    }

    /// Restricts the fault to the space's `n`-th syscall (0-based).
    pub fn at_syscall(mut self, n: u64) -> Fault {
        self.nth_syscall = Some(n);
        self
    }

    /// True if the probe coordinates satisfy this fault's trigger.
    fn matches(&self, site: FaultSite, path: &str, nth: u64) -> bool {
        self.site == site
            && self.path == path
            // An unset ordinal matches any syscall.
            && self.nth_syscall.is_none_or(|n| n == nth)
    }
}

/// A set of armed faults, installed at kernel construction via
/// [`KernelConfigBuilder::faults`].
///
/// [`KernelConfigBuilder::faults`]: crate::KernelConfigBuilder::faults
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub struct FaultPlan {
    faults: Vec<Fault>,
}

impl FaultPlan {
    /// An empty plan (no faults).
    pub fn new() -> FaultPlan {
        FaultPlan::default()
    }

    /// Adds a fault to the plan.
    pub fn with(mut self, fault: Fault) -> FaultPlan {
        self.faults.push(fault);
        self
    }

    /// The standard crash plan: kill the kernel at the root space's
    /// `n`-th syscall (0-based). This is what the conform CLI's
    /// `--kill-at <n>` arms.
    pub fn kill_at_syscall(n: u64) -> FaultPlan {
        FaultPlan::new().with(Fault::new(FaultSite::Syscall, FaultAction::KillKernel).at_syscall(n))
    }

    /// True if the plan arms no faults.
    pub fn is_empty(&self) -> bool {
        self.faults.is_empty()
    }

    /// The armed faults.
    pub fn faults(&self) -> &[Fault] {
        &self.faults
    }

    /// Parses a textual fault spec (the conform CLI's `--fault`
    /// argument):
    ///
    /// ```text
    /// <action>@<site>[:<coord>[,<coord>...]]
    ///   action  kill | panic | fail
    ///   site    syscall | device | alloc
    ///   coord   path=<lineage path> | n=<syscall ordinal>
    /// ```
    ///
    /// A spec without `path=` arms the root (`path=/`).
    ///
    /// Examples: `kill@syscall:path=/,n=12`, `fail@device:n=0`,
    /// `panic@syscall:path=/3`.
    pub fn parse(spec: &str) -> std::result::Result<Fault, String> {
        let (action, rest) = spec
            .split_once('@')
            .ok_or_else(|| format!("fault spec `{spec}` missing `@` (action@site:coords)"))?;
        let action = match action {
            "kill" => FaultAction::KillKernel,
            "panic" => FaultAction::PanicVehicle,
            "fail" => FaultAction::FailOp,
            other => return Err(format!("unknown fault action `{other}` (kill|panic|fail)")),
        };
        let (site, coords) = match rest.split_once(':') {
            Some((s, c)) => (s, Some(c)),
            None => (rest, None),
        };
        let site = match site {
            "syscall" => FaultSite::Syscall,
            "device" => FaultSite::Device,
            "alloc" => FaultSite::Alloc,
            other => {
                return Err(format!(
                    "unknown fault site `{other}` (syscall|device|alloc)"
                ));
            }
        };
        let mut fault = Fault::new(site, action);
        for coord in coords.into_iter().flat_map(|c| c.split(',')) {
            let (key, val) = coord
                .split_once('=')
                .ok_or_else(|| format!("fault coordinate `{coord}` missing `=`"))?;
            match key {
                "path" => fault.path = val.to_string(),
                "n" => {
                    fault.nth_syscall = Some(
                        val.parse()
                            .map_err(|_| format!("bad syscall ordinal `{val}`"))?,
                    )
                }
                other => return Err(format!("unknown fault coordinate `{other}` (path|n)")),
            }
        }
        Ok(fault)
    }
}

/// A plan armed inside the kernel: each fault paired with its
/// fired-once latch.
#[derive(Default)]
pub(crate) struct ArmedFaults {
    faults: Vec<(Fault, AtomicBool)>,
}

impl ArmedFaults {
    pub(crate) fn new(plan: FaultPlan) -> ArmedFaults {
        ArmedFaults {
            faults: plan
                .faults
                .into_iter()
                .map(|f| (f, AtomicBool::new(false)))
                .collect(),
        }
    }

    pub(crate) fn is_empty(&self) -> bool {
        self.faults.is_empty()
    }

    /// Probes the plan at deterministic coordinates; returns the first
    /// matching unfired fault's action, latching it fired.
    ///
    /// The latch is an `AtomicBool` only because probes from different
    /// vehicles share the plan. Every fault names one space (its path
    /// defaults to the root's), and a space's probes are ordered by its
    /// own syscall ordinals, so whether a fault fires — and at which
    /// event — is a pure function of that space's coordinates, never of
    /// which space the host ran first.
    pub(crate) fn probe(&self, site: FaultSite, path: &str, nth: u64) -> Option<FaultAction> {
        for (f, fired) in &self.faults {
            if f.matches(site, path, nth)
                && fired
                    .compare_exchange(false, true, Ordering::SeqCst, Ordering::SeqCst)
                    .is_ok()
            {
                return Some(f.action);
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spec_parsing() {
        let f = FaultPlan::parse("kill@syscall:path=/,n=12").unwrap();
        assert_eq!(f.action, FaultAction::KillKernel);
        assert_eq!(f.site, FaultSite::Syscall);
        assert_eq!(f.path, "/");
        assert_eq!(f.nth_syscall, Some(12));
        let f = FaultPlan::parse("fail@device").unwrap();
        assert_eq!(f.action, FaultAction::FailOp);
        assert_eq!(f.site, FaultSite::Device);
        assert!(f.path == "/" && f.nth_syscall.is_none());
        assert!(FaultPlan::parse("boom@syscall").is_err());
        assert!(FaultPlan::parse("kill@clock").is_err());
        assert!(FaultPlan::parse("kill@syscall:n=x").is_err());
        assert!(FaultPlan::parse("kill").is_err());
    }

    #[test]
    fn probe_fires_once_at_matching_coordinates() {
        let armed = ArmedFaults::new(FaultPlan::kill_at_syscall(2));
        assert_eq!(armed.probe(FaultSite::Syscall, "/", 0), None);
        assert_eq!(armed.probe(FaultSite::Syscall, "/3", 2), None);
        assert_eq!(armed.probe(FaultSite::Device, "/", 2), None);
        assert_eq!(
            armed.probe(FaultSite::Syscall, "/", 2),
            Some(FaultAction::KillKernel)
        );
        // Latched: the same coordinates never fire twice.
        assert_eq!(armed.probe(FaultSite::Syscall, "/", 2), None);
    }
}
