//! The campaign engine: the contract every kind signs, and run / shrink
//! / repro / sweep written once against it.
//!
//! A kind is a spec type that implements [`Campaign`]: it says how to run
//! itself, where its outcome keeps its violations, which smaller specs
//! are worth trying, and how its fields print and parse. Because a run is
//! a pure function of its spec, shrinking is just re-running candidate
//! specs and keeping the smallest one that still fails, and a failure is
//! one line: `--repro kind=cluster,seed=3,...`, replayed by
//! `exp_torture --repro <line>` whatever the kind. [`KINDS`] is the
//! registry the exhibit and the determinism harness iterate.

use crate::{CampaignSpec, ClusterCampaignSpec, ReplCampaignSpec};
use std::fmt::{Debug, Display};
use std::ops::Range;
use std::str::FromStr;

/// What a campaign kind tells the engine.
pub trait Campaign: Copy + PartialEq + Debug {
    /// The `kind=` value of a repro line.
    const KIND: &'static str;
    /// What one run produces; its `Debug` rendering is what two
    /// same-spec runs are compared by.
    type Outcome: Debug;

    /// The spec a bare seed names: what a sweep runs for that seed and
    /// what the other fields of a repro line override.
    fn from_seed(seed: u64) -> Self;
    /// Runs the campaign. Never panics on a spec [`parse_repro`] accepts;
    /// whatever goes wrong is a violation.
    fn run(&self) -> Self::Outcome;
    /// Contract violations of a run; empty means the contract held.
    fn violations(outcome: &Self::Outcome) -> &[String];
    /// Specs strictly smaller than this one, the boldest cut first.
    fn smaller(&self) -> Vec<Self>;
    /// Every field by its key on a repro line, `seed` among them.
    fn fields(&mut self) -> Vec<(&'static str, &mut dyn Field)>;
}

/// A spec field as a repro line carries it.
pub trait Field {
    fn print(&self) -> String;
    /// `None` when the value does not parse.
    fn set(&mut self, value: &str) -> Option<()>;
}

impl<T: Display + FromStr> Field for T {
    fn print(&self) -> String {
        self.to_string()
    }

    fn set(&mut self, value: &str) -> Option<()> {
        *self = value.parse().ok()?;
        Some(())
    }
}

/// The cuts of one op count a kind's `smaller` tries: half, three
/// quarters, one less.
pub(crate) fn halvings(n: usize) -> impl Iterator<Item = usize> {
    let mut cuts = match n {
        0 => Vec::new(),
        _ => vec![n / 2, n - (n / 4).max(1), n - 1],
    };
    cuts.dedup();
    cuts.into_iter()
}

/// A campaign is "failing" when it reports any violation.
pub fn failing<C: Campaign>(spec: &C) -> bool {
    !C::violations(&spec.run()).is_empty()
}

/// Greedily minimizes a failing spec: the first of `smaller()` that
/// still fails becomes the new best, until none does. The output fails
/// if the input did.
pub fn shrink<C: Campaign>(spec: &C) -> C {
    let mut best = *spec;
    while let Some(next) = best.smaller().into_iter().find(failing) {
        best = next;
    }
    best
}

/// One line that replays the spec: paste it after `exp_torture`.
pub fn repro_line<C: Campaign>(spec: &C) -> String {
    let mut line = format!("--repro kind={}", C::KIND);
    for (key, field) in { *spec }.fields() {
        line.push_str(&format!(",{key}={}", field.print()));
    }
    line
}

/// The kind a repro payload names; a line from before lines carried
/// `kind=` is an array campaign.
fn kind_of(payload: &str) -> &str {
    let mut pairs = payload.split(',');
    let kind = pairs.find_map(|pair| pair.trim().strip_prefix("kind="));
    kind.unwrap_or(CampaignSpec::KIND)
}

/// Parses the `key=value,...` payload of a repro line (the part after
/// `--repro`) as kind `C`. Another kind's line, unknown keys and
/// malformed pairs are errors.
pub fn parse_repro<C: Campaign>(payload: &str) -> Option<C> {
    if kind_of(payload) != C::KIND {
        return None;
    }
    let pairs = payload
        .split(',')
        .map(|pair| pair.split_once('=').map(|(k, v)| (k.trim(), v.trim())))
        .collect::<Option<Vec<_>>>()?;
    let seed = match pairs.iter().find(|(key, _)| *key == "seed") {
        Some((_, v)) => v.parse().ok()?,
        None => 0,
    };
    let mut spec = C::from_seed(seed);
    for (key, value) in pairs {
        if key != "kind" {
            let (_, field) = spec.fields().into_iter().find(|(k, _)| *k == key)?;
            field.set(value)?;
        }
    }
    Some(spec)
}

/// One run with its types erased: what a row, a replay or a
/// determinism comparison needs.
#[derive(Debug, Clone)]
pub struct Replay {
    /// The spec's canonical repro line.
    pub line: String,
    /// `{:#?}` of the whole outcome.
    pub outcome: String,
    pub violations: Vec<String>,
}

impl Replay {
    fn of<C: Campaign>(spec: &C, outcome: &C::Outcome) -> Self {
        Replay {
            line: repro_line(spec),
            outcome: format!("{outcome:#?}"),
            violations: C::violations(outcome).to_vec(),
        }
    }
}

/// What a sweep that was not clean found.
#[derive(Debug, Clone)]
pub struct Failure {
    /// Campaigns that violated their contract.
    pub failed: usize,
    /// Violations of the first of them, as swept.
    pub violations: Vec<String>,
    /// The one-line repro of that spec, shrunk.
    pub repro: String,
}

impl Display for Failure {
    fn fmt(&self, f: &mut std::fmt::Formatter) -> std::fmt::Result {
        let first = self.violations.join("\n  ");
        let n = self.failed;
        write!(
            f,
            "{n} campaign(s) violated the contract; the first:\n  {first}\n"
        )?;
        write!(f, "minimal repro: exp_torture {}", self.repro)
    }
}

/// Runs every spec, hands each outcome to `each`, and shrinks the first
/// failure to its one-line repro. `None` means every contract held.
pub fn sweep<C: Campaign>(
    specs: impl IntoIterator<Item = C>,
    mut each: impl FnMut(&C, &C::Outcome),
) -> Option<Failure> {
    let mut found: Option<Failure> = None;
    for spec in specs {
        let outcome = spec.run();
        let violations = C::violations(&outcome);
        match &mut found {
            _ if violations.is_empty() => {}
            Some(f) => f.failed += 1,
            None => {
                found = Some(Failure {
                    failed: 1,
                    violations: violations.to_vec(),
                    repro: repro_line(&shrink(&spec)),
                })
            }
        }
        each(&spec, &outcome);
    }
    found
}

type Rows<'a> = &'a mut dyn FnMut(&Replay);

/// A kind with its spec type erased, for callers that pick one by name.
pub struct Kind {
    pub name: &'static str,
    /// Parses a repro payload of this kind and runs it.
    pub replay: fn(&str) -> Option<Replay>,
    /// Sweeps the kind's `from_seed` specs over a seed range, handing
    /// each run to the callback.
    pub sweep: fn(Range<u64>, Rows) -> Option<Failure>,
}

impl Kind {
    const fn of<C: Campaign>() -> Self {
        Kind {
            name: C::KIND,
            replay: |payload| {
                let spec: C = parse_repro(payload)?;
                Some(Replay::of(&spec, &spec.run()))
            },
            sweep: |seeds, each| {
                let each = |spec: &C, outcome: &C::Outcome| each(&Replay::of(spec, outcome));
                sweep(seeds.map(C::from_seed), each)
            },
        }
    }
}

/// Every campaign kind. A new kind is one `Campaign` impl and one entry.
pub const KINDS: [Kind; 3] = [
    Kind::of::<CampaignSpec>(),
    Kind::of::<ClusterCampaignSpec>(),
    Kind::of::<ReplCampaignSpec>(),
];

/// The kind with this name.
pub fn kind(name: &str) -> Option<&'static Kind> {
    KINDS.iter().find(|k| k.name == name)
}

/// Parses a repro payload of any kind and runs it.
pub fn replay(payload: &str) -> Option<Replay> {
    (kind(kind_of(payload))?.replay)(payload)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ClusterFault, CrashPhase};

    fn round_trips<C: Campaign>(spec: C) {
        let line = repro_line(&spec);
        let payload = line.strip_prefix("--repro ").unwrap();
        assert!(payload.starts_with(&format!("kind={},", C::KIND)), "{line}");
        assert_eq!(parse_repro(payload), Some(spec));
    }

    #[test]
    fn repro_line_round_trips() {
        round_trips(CampaignSpec {
            seed: 42,
            crash_op: 17,
            post_ops: 3,
            phase: CrashPhase::SegmentFlush,
            full_scan: true,
            sabotage: true,
            host_stage: false,
        });
        round_trips(ClusterCampaignSpec {
            ops: 5,
            fault: ClusterFault::Partition { heal_after_ops: 9 },
            sabotage: true,
            ..ClusterCampaignSpec::from_seed(7)
        });
        round_trips(ReplCampaignSpec {
            rounds: 1,
            crash_source: false,
            sabotage: true,
            ..ReplCampaignSpec::from_seed(5)
        });
    }

    /// A line printed before lines carried `kind=` is an array campaign.
    #[test]
    fn a_line_without_kind_is_an_array_campaign() {
        let old = "seed=3,phase=op-boundary,crash_op=6,post_ops=0,\
                   full_scan=false,sabotage=true,host=false";
        let spec: CampaignSpec = parse_repro(old).unwrap();
        assert_eq!((spec.seed, spec.crash_op, spec.sabotage), (3, 6, true));
        assert!(parse_repro::<ClusterCampaignSpec>(old).is_none());
    }

    #[test]
    fn parse_rejects_unknown_keys_and_junk() {
        assert!(parse_repro::<CampaignSpec>("seed=1,bogus=2").is_none());
        assert!(parse_repro::<CampaignSpec>("seed=abc").is_none());
        assert!(parse_repro::<CampaignSpec>("no-equals-sign").is_none());
        assert!(parse_repro::<ClusterCampaignSpec>("kind=cluster,fault=meteor").is_none());
        assert!(replay("kind=raid0,seed=1").is_none());
    }

    #[test]
    fn halvings_are_strictly_smaller_and_reach_zero() {
        assert_eq!(halvings(0).count(), 0);
        assert_eq!(halvings(1).collect::<Vec<_>>(), [0]);
        assert_eq!(halvings(120).collect::<Vec<_>>(), [60, 90, 119]);
        for n in 1..200 {
            assert!(halvings(n).all(|c| c < n));
        }
    }
}
