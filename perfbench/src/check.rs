//! The correctness gate: every reply is compared, as text, with the reply
//! an in-process [`AnalysisEngine`] (or the connection's ledger model)
//! gives for the same request. The daemon's JSON writer prints every
//! float in shortest round-trip form, so equal text means equal bits.
//!
//! Only the fields that legitimately differ between two engines are
//! removed first: `cache_hit` and `wall_micros` (memo state and clocks)
//! and a planner certificate's `cache_hits` (the daemon's memo evicts
//! under concurrent searches; a fresh reference engine never does).
//! Values, bound names, validity, and the certificate's witness pair and
//! evaluation count are compared bit for bit.

use vr_core::engine::{AmplificationQuery, AnalysisEngine};
use vr_server::{Reply, WireError};

const CACHE_HIT: &str = ",\"cache_hit\":";
const WALL_MICROS: &str = ",\"wall_micros\":";
const CERT_HITS: &str = ",\"cache_hits\":";

/// What [`normalize`] removed from a reply.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct Meta {
    /// The first `wall_micros` (the frame's own, for single-op frames).
    pub wall_us: Option<u64>,
    /// `cache_hit` flags that read `true` / `false`.
    pub hits: u32,
    pub misses: u32,
}

/// Strip the volatile fields from a reply line, returning the remaining
/// text and what was removed.
pub fn normalize(line: &str) -> (String, Meta) {
    let mut out = String::with_capacity(line.len());
    let mut meta = Meta::default();
    let mut copied = 0;
    let mut at = 0;
    while let Some(offset) = line[at..].find(",\"") {
        let start = at + offset;
        let rest = &line[start..];
        let cut = if let Some(value) = rest.strip_prefix(CACHE_HIT) {
            if value.starts_with("true") {
                meta.hits += 1;
                Some(CACHE_HIT.len() + 4)
            } else if value.starts_with("false") {
                meta.misses += 1;
                Some(CACHE_HIT.len() + 5)
            } else {
                None
            }
        } else {
            [WALL_MICROS, CERT_HITS].iter().find_map(|prefix| {
                let value = rest.strip_prefix(prefix)?;
                let digits = value.bytes().take_while(u8::is_ascii_digit).count();
                if *prefix == WALL_MICROS && meta.wall_us.is_none() {
                    meta.wall_us = value[..digits].parse().ok();
                }
                Some(prefix.len() + digits)
            })
        };
        match cut {
            Some(len) => {
                out.push_str(&line[copied..start]);
                copied = start + len;
                at = copied;
            }
            None => at = start + 2,
        }
    }
    out.push_str(&line[copied..]);
    (out, meta)
}

/// How a reply compared with its reference.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Match,
    /// A `busy` error reply.
    Busy,
    /// Any other error reply (malformed frame, invalid parameter, …).
    Error,
    /// A success reply whose bits differ from the reference.
    Drift,
}

pub fn verdict(normalized: &str, expected: &str) -> Verdict {
    if normalized == expected {
        Verdict::Match
    } else if normalized.contains("\"ok\":false") && normalized.contains("\"kind\":\"busy\"") {
        Verdict::Busy
    } else if normalized.starts_with("{\"ok\":false") {
        Verdict::Error
    } else {
        Verdict::Drift
    }
}

/// The normalized reply the daemon must send for `query`.
pub fn reference_reply(engine: &AnalysisEngine, query: &AmplificationQuery) -> String {
    let reply = match engine.run(query) {
        Ok(report) => Reply::from_report(None, &report),
        Err(e) => Reply::err(None, WireError::from(e)),
    };
    normalize(&reply.to_json().to_string()).0
}

/// Check replies whose reference was too costly to compute while
/// measuring. Each query runs on a fresh engine — these workloads are
/// cold by design, and a fresh engine never evicts mid-search. Returns the
/// number of mismatches and a description of the first.
pub fn verify_deferred(items: &[(AmplificationQuery, String)]) -> (u64, Option<String>) {
    let results = crate::par_map(items, |(query, served)| {
        let want = reference_reply(&AnalysisEngine::new(), query);
        (want != *served).then(|| format!("served {served}\n  reference {want}"))
    });
    let failed = results.iter().flatten().count() as u64;
    (failed, results.into_iter().flatten().next())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn normalize_strips_only_volatile_fields() {
        let line = "{\"ok\":true,\"value\":0.25,\"bound\":\"numerical\",\"eps_ceiling\":null,\
                    \"conditional\":false,\"cache_hit\":true,\"wall_micros\":17,\
                    \"certificate\":{\"failing\":584,\"passing\":585,\"evaluations\":21,\"cache_hits\":3}}";
        let (text, meta) = normalize(line);
        assert_eq!(
            text,
            "{\"ok\":true,\"value\":0.25,\"bound\":\"numerical\",\"eps_ceiling\":null,\
             \"conditional\":false,\"certificate\":{\"failing\":584,\"passing\":585,\"evaluations\":21}}"
        );
        assert_eq!(
            meta,
            Meta {
                wall_us: Some(17),
                hits: 1,
                misses: 0
            }
        );
    }

    #[test]
    fn verdicts_separate_busy_errors_and_drift() {
        let want = "{\"ok\":true,\"value\":0.5}";
        assert_eq!(verdict(want, want), Verdict::Match);
        assert_eq!(
            verdict("{\"ok\":true,\"value\":0.5000000000000001}", want),
            Verdict::Drift
        );
        let busy = "{\"ok\":false,\"error\":{\"kind\":\"busy\",\"message\":\"full\"}}";
        assert_eq!(verdict(busy, want), Verdict::Busy);
        let bad = "{\"ok\":false,\"error\":{\"kind\":\"malformed\",\"message\":\"bad JSON\"}}";
        assert_eq!(verdict(bad, want), Verdict::Error);
    }
}
