//! `expected.json`: the counts every exploration of a workload must
//! reproduce exactly, and their comparison against what was observed.

use s2e_obs::json::{self, Json};
use std::collections::BTreeMap;

/// What one exploration produced, as far as its tier lets the caller
/// see. `None` means the tier's report does not carry the field (the
/// parallel tiers return no termination reasons, the distributed tier
/// no bug list); `expected.json` holds `null` there.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Counts {
    pub paths: u64,
    pub forks: u64,
    /// Retired guest instructions, concrete plus symbolic.
    pub guest_instrs: u64,
    /// Terminated paths per `TerminationReason` variant.
    pub reasons: Option<BTreeMap<String, u64>>,
    pub bugs: Option<u64>,
    /// Fold of the sorted `path_digest` multiset, in hex. `None` where
    /// the digests depend on the seed (the checksum's kill status).
    pub digest: Option<String>,
}

impl Counts {
    pub fn to_json(&self) -> Json {
        let reasons = self.reasons.as_ref().map_or(Json::Null, |r| {
            r.iter().fold(Json::obj(), |o, (k, &v)| o.set(k, v))
        });
        Json::obj()
            .set("paths", self.paths)
            .set("forks", self.forks)
            .set("guest_instrs", self.guest_instrs)
            .set("reasons", reasons)
            .set("bugs", self.bugs.map_or(Json::Null, Json::from))
            .set(
                "digest",
                self.digest.as_deref().map_or(Json::Null, Json::from),
            )
    }

    fn from_json(j: &Json) -> Result<Counts, String> {
        let count = |key: &str| {
            j.get(key)
                .and_then(Json::as_u64)
                .ok_or_else(|| format!("`{key}` is not a count"))
        };
        let reasons = match j.get("reasons") {
            None | Some(Json::Null) => None,
            Some(r) => {
                let pairs = r.as_obj().ok_or("`reasons` is not an object")?;
                let mut map = BTreeMap::new();
                for (k, v) in pairs {
                    let n = v
                        .as_u64()
                        .ok_or_else(|| format!("reason `{k}` is not a count"))?;
                    map.insert(k.clone(), n);
                }
                Some(map)
            }
        };
        let bugs = match j.get("bugs") {
            None | Some(Json::Null) => None,
            Some(b) => Some(b.as_u64().ok_or("`bugs` is not a count")?),
        };
        let digest = match j.get("digest") {
            None | Some(Json::Null) => None,
            Some(d) => Some(d.as_str().ok_or("`digest` is not a string")?.to_string()),
        };
        Ok(Counts {
            paths: count("paths")?,
            forks: count("forks")?,
            guest_instrs: count("guest_instrs")?,
            reasons,
            bugs,
            digest,
        })
    }

    /// Every field of `self` (the observation) that differs from
    /// `expected`, one line each; empty when they agree.
    pub fn mismatches(&self, expected: &Counts) -> Vec<String> {
        let mut out = Vec::new();
        let mut field = |name: &str, got: String, want: String| {
            if got != want {
                out.push(format!("{name}: got {got}, expected {want}"));
            }
        };
        field("paths", self.paths.to_string(), expected.paths.to_string());
        field("forks", self.forks.to_string(), expected.forks.to_string());
        field(
            "guest_instrs",
            self.guest_instrs.to_string(),
            expected.guest_instrs.to_string(),
        );
        field(
            "reasons",
            format!("{:?}", self.reasons),
            format!("{:?}", expected.reasons),
        );
        field(
            "bugs",
            format!("{:?}", self.bugs),
            format!("{:?}", expected.bugs),
        );
        field(
            "digest",
            format!("{:?}", self.digest),
            format!("{:?}", expected.digest),
        );
        out
    }
}

/// Parses `expected.json`: one [`Counts`] object per workload name.
pub fn parse(text: &str) -> Result<BTreeMap<String, Counts>, String> {
    let root = json::parse(text).map_err(|e| format!("expected.json: {e:?}"))?;
    let pairs = root
        .as_obj()
        .ok_or("expected.json: top level is not an object")?;
    let mut out = BTreeMap::new();
    for (name, j) in pairs {
        let counts = Counts::from_json(j).map_err(|e| format!("expected.json: {name}: {e}"))?;
        out.insert(name.clone(), counts);
    }
    Ok(out)
}

/// Folds a sorted digest multiset into one pinned value (FNV-1a over
/// the little-endian bytes; order matters, so sort first).
pub fn fold_digests(sorted: &[u64]) -> String {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for d in sorted {
        for b in d.to_le_bytes() {
            h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    format!("{h:016x}")
}
