//! Golden-trace regression: snapshot a scenario's behavioural digest to a
//! compact text file and verify later runs against it.
//!
//! A golden file is a serialised [`RunRecord`] — the scenario's digest plus
//! a handful of human-auditable summary statistics (the same compact record
//! the campaign engine aggregates).  [`verify_against_golden`] re-runs the
//! scenario and compares; any drift in the executor schedule, the simulated
//! physics, a controller, an oracle or the RNG streams shows up as a digest
//! mismatch.  Regenerate snapshots by running the golden tests with
//! `SOTER_BLESS=1` in the environment.
//!
//! This module is also the one record codec for every boundary a record
//! crosses: `read_fields` is the strict `key = value` reader behind every
//! text document the crate parses (goldens, counterexamples), and
//! [`write_frame`] / [`read_frame`] are the `<header>\n<record text>END\n`
//! frame shared by the shard wire protocol, daemon replies and the
//! result-cache segment.  An [`EncodedRecord`] carries a record's text so
//! [`write_encoded_frame`] can write its frame again without re-encoding.

use crate::campaign::RunRecord;
use crate::runner::run_scenario;
use crate::spec::Scenario;
use std::fmt::{self, Write as _};
use std::fs;
use std::io::BufRead;
use std::path::{Path, PathBuf};
use std::str::FromStr;

/// The environment variable that switches verification into re-blessing.
pub const BLESS_ENV: &str = "SOTER_BLESS";

/// The line that closes a record frame.
const FRAME_END: &str = "END\n";

/// Serialises a record to the `key = value` text format stored under
/// `tests/golden/`.
pub fn record_to_text(record: &RunRecord) -> String {
    let mut out = String::with_capacity(320);
    write_record(&mut out, record);
    out
}

fn write_record(out: &mut String, record: &RunRecord) {
    let _ = write!(
        out,
        "scenario = {}\nseed = {}\ndigest = {:#018x}\nsafety_violations = {}\n\
         separation_violations = {}\ninvariant_violations = {}\nmode_switches = {}\n\
         targets_reached = {}\ncompleted = {}\ninterventions = {}\ntime_in_sc_ms = {}\n",
        record.scenario,
        record.seed,
        record.digest,
        record.safety_violations,
        record.separation_violations,
        record.invariant_violations,
        record.mode_switches,
        record.targets_reached,
        record.completed,
        record.interventions,
        record.time_in_sc_ms
    );
}

/// The complete set of keys a serialised [`RunRecord`] may carry, in the
/// order [`record_to_text`] writes them.  [`record_from_text`] accepts
/// exactly these keys, each at most once.
pub const RECORD_KEYS: [&str; 11] = [
    "scenario",
    "seed",
    "digest",
    "safety_violations",
    "separation_violations",
    "invariant_violations",
    "mode_switches",
    "targets_reached",
    "completed",
    "interventions",
    "time_in_sc_ms",
];

/// Parses the text format produced by [`record_to_text`].
///
/// Parsing is strict (see `read_fields`): duplicate, unknown and
/// un-parseable lines are rejected with a [`GoldenError::Parse`] naming
/// the offending line, so a corrupted or hand-edited golden fails loudly
/// instead of silently parsing to a wrong record.  Every record frame goes
/// through this parser too, so the same strictness doubles as wire and
/// cache-segment validation.
pub fn record_from_text(text: &str) -> Result<RunRecord, GoldenError> {
    let mut values = [None; RECORD_KEYS.len()];
    read_fields(text, &mut values, |key| {
        RECORD_KEYS.iter().position(|&known| known == key)
    })?;
    record_from_fields(&values)
}

/// Builds a record from the values read for [`RECORD_KEYS`], slot for slot.
pub(crate) fn record_from_fields(values: &[Option<&str>]) -> Result<RunRecord, GoldenError> {
    let f = Fields(&RECORD_KEYS, values);
    let digest_text = f.get("digest")?;
    let digest = digest_text
        .strip_prefix("0x")
        .and_then(|hex| u64::from_str_radix(hex, 16).ok())
        .ok_or_else(|| GoldenError::Parse(format!("bad digest: {digest_text}")))?;
    Ok(RunRecord {
        scenario: f.get("scenario")?.to_string(),
        seed: f.parse("seed")?,
        digest,
        safety_violations: f.parse("safety_violations")?,
        separation_violations: f.parse("separation_violations")?,
        invariant_violations: f.parse("invariant_violations")?,
        mode_switches: f.parse("mode_switches")?,
        targets_reached: f.parse("targets_reached")?,
        completed: f.parse("completed")?,
        interventions: f.parse("interventions")?,
        time_in_sc_ms: f.parse("time_in_sc_ms")?,
    })
}

/// The one strict `key = value` reader.  Blank lines are skipped; every
/// other line must be a `key = value` pair whose key `slot_of` maps to an
/// index of `values`, and no slot may be filled twice.  Junk lines,
/// unknown keys and duplicates are rejected with a [`GoldenError::Parse`]
/// naming the line.  Values are trimmed and borrowed from `text`.
pub(crate) fn read_fields<'t>(
    text: &'t str,
    values: &mut [Option<&'t str>],
    slot_of: impl Fn(&str) -> Option<usize>,
) -> Result<(), GoldenError> {
    for (number, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let fail = |why: String| GoldenError::Parse(format!("line {} {why}: `{line}`", number + 1));
        let (key, value) = line
            .split_once('=')
            .ok_or_else(|| fail("is not a `key = value` pair".into()))?;
        let key = key.trim();
        let slot = slot_of(key)
            .and_then(|i| values.get_mut(i))
            .ok_or_else(|| fail(format!("has an unknown field `{key}`")))?;
        if slot.replace(value.trim()).is_some() {
            return Err(fail(format!("duplicates field `{key}`")));
        }
    }
    Ok(())
}

/// The values [`read_fields`] read, looked up by key: `Fields(keys,
/// values)` holds in `values[i]` the value read for `keys[i]`.
pub(crate) struct Fields<'t, 'a>(pub(crate) &'a [&'a str], pub(crate) &'a [Option<&'t str>]);

impl<'t> Fields<'t, '_> {
    /// The value read for `key`, or an error naming the missing field.
    pub(crate) fn get(&self, key: &str) -> Result<&'t str, GoldenError> {
        let slot = self.0.iter().position(|&k| k == key);
        self.1[slot.expect("a key of this document")]
            .ok_or_else(|| GoldenError::Parse(format!("missing field `{key}`")))
    }

    /// Parses the value read for `key`.
    pub(crate) fn parse<T: FromStr>(&self, key: &str) -> Result<T, GoldenError> {
        let value = self.get(key)?;
        value
            .parse()
            .map_err(|_| GoldenError::Parse(format!("field `{key}` has a bad value `{value}`")))
    }
}

/// Appends one record frame to `out`: the `header` line, the record in
/// golden text format, and the closing `END` line.
pub fn write_frame(out: &mut String, header: impl fmt::Display, record: &RunRecord) {
    let _ = writeln!(out, "{header}");
    write_record(out, record);
    out.push_str(FRAME_END);
}

/// A record together with its golden text, encoded once.  Whoever holds
/// one (the result cache, a campaign response) writes the record's frame
/// by copying that text, so a record served many times is encoded only
/// when it is made.  The text is always [`record_to_text`] of the record,
/// never bytes read from elsewhere.
#[derive(Debug, PartialEq, Eq)]
pub struct EncodedRecord {
    record: RunRecord,
    text: String,
}

impl EncodedRecord {
    /// Encodes `record`.
    pub fn new(record: RunRecord) -> Self {
        let text = record_to_text(&record);
        EncodedRecord { record, text }
    }

    /// The record.
    pub fn record(&self) -> &RunRecord {
        &self.record
    }

    /// The record's golden text, as [`record_to_text`] writes it.
    pub fn text(&self) -> &str {
        &self.text
    }
}

/// Appends one record frame around an already-encoded record: the same
/// bytes as [`write_frame`] of [`EncodedRecord::record`], without encoding
/// it again.
pub fn write_encoded_frame(out: &mut String, header: impl fmt::Display, record: &EncodedRecord) {
    let _ = writeln!(out, "{header}");
    out.push_str(record.text());
    out.push_str(FRAME_END);
}

/// Why [`read_frame`] produced no record.
#[derive(Debug, PartialEq, Eq)]
pub enum FrameError {
    /// The input ended (or failed to read) before the `END` line: the
    /// frame never arrived whole.
    Torn,
    /// The frame is complete but its body is not UTF-8 or not a valid
    /// record.
    Corrupt(String),
}

impl fmt::Display for FrameError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FrameError::Torn => f.write_str("EOF inside record frame"),
            FrameError::Corrupt(why) => write!(f, "invalid record frame: {why}"),
        }
    }
}

/// Reads the body of one record frame — the lines after its header,
/// through the `END` line — and parses it with [`record_from_text`].
/// Returns the bytes consumed alongside the outcome; after a
/// [`FrameError::Corrupt`] frame the input is positioned just past its
/// `END` line, so a caller can skip it and read on.
pub fn read_frame(input: &mut dyn BufRead) -> (usize, Result<RunRecord, FrameError>) {
    let mut body = Vec::with_capacity(320);
    loop {
        let start = body.len();
        match input.read_until(b'\n', &mut body) {
            Ok(n) if n > 0 && body.ends_with(b"\n") => {}
            _ => return (body.len(), Err(FrameError::Torn)),
        }
        if &body[start..] == FRAME_END.as_bytes() {
            let record = std::str::from_utf8(&body[..start])
                .map_err(|_| FrameError::Corrupt("record frame is not UTF-8".into()))
                .and_then(|text| {
                    record_from_text(text).map_err(|e| FrameError::Corrupt(e.to_string()))
                });
            return (body.len(), record);
        }
    }
}

/// Errors from golden-trace verification.
#[derive(Debug)]
pub enum GoldenError {
    /// No snapshot exists for the scenario (run with `SOTER_BLESS=1` to
    /// create it).
    Missing(PathBuf),
    /// The snapshot file could not be read or written.
    Io(std::io::Error),
    /// The snapshot file is malformed.
    Parse(String),
    /// The scenario's behaviour diverged from the snapshot.
    Mismatch {
        /// What the snapshot recorded.
        expected: Box<RunRecord>,
        /// What the run produced.
        actual: Box<RunRecord>,
    },
}

impl fmt::Display for GoldenError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GoldenError::Missing(path) => write!(
                f,
                "no golden snapshot at {} (re-run with {BLESS_ENV}=1 to create it)",
                path.display()
            ),
            GoldenError::Io(e) => write!(f, "golden snapshot I/O error: {e}"),
            GoldenError::Parse(msg) => write!(f, "malformed golden snapshot: {msg}"),
            GoldenError::Mismatch { expected, actual } => write!(
                f,
                "golden mismatch for `{}` (seed {}):\n  expected: {:?}\n  actual:   {:?}\n\
                 (if the change is intentional, re-bless with {BLESS_ENV}=1)",
                expected.scenario, expected.seed, expected, actual
            ),
        }
    }
}

impl std::error::Error for GoldenError {}

impl From<std::io::Error> for GoldenError {
    fn from(e: std::io::Error) -> Self {
        GoldenError::Io(e)
    }
}

/// The snapshot path for a scenario within a golden directory.
pub fn golden_path(dir: &Path, scenario: &Scenario) -> PathBuf {
    dir.join(format!("{}-s{}.golden", scenario.name, scenario.seed))
}

/// Runs the scenario and writes (or overwrites) its snapshot.
pub fn bless(scenario: &Scenario, dir: &Path) -> Result<RunRecord, GoldenError> {
    let record = RunRecord::from_outcome(&run_scenario(scenario));
    fs::create_dir_all(dir)?;
    fs::write(golden_path(dir, scenario), record_to_text(&record))?;
    Ok(record)
}

/// Runs the scenario and compares the result with its snapshot under `dir`.
///
/// When the [`BLESS_ENV`] environment variable is set (to anything other
/// than `0` or the empty string), the snapshot is rewritten instead and the
/// fresh record is returned.
pub fn verify_against_golden(scenario: &Scenario, dir: &Path) -> Result<RunRecord, GoldenError> {
    let blessing = std::env::var(BLESS_ENV)
        .map(|v| !v.is_empty() && v != "0")
        .unwrap_or(false);
    if blessing {
        return bless(scenario, dir);
    }
    let path = golden_path(dir, scenario);
    if !path.exists() {
        return Err(GoldenError::Missing(path));
    }
    let expected = record_from_text(&fs::read_to_string(&path)?)?;
    let actual = RunRecord::from_outcome(&run_scenario(scenario));
    if expected == actual {
        Ok(actual)
    } else {
        Err(GoldenError::Mismatch {
            expected: Box::new(expected),
            actual: Box::new(actual),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_record() -> RunRecord {
        RunRecord {
            scenario: "fig12a-rta".into(),
            seed: 3,
            digest: 0x0123_4567_89ab_cdef,
            safety_violations: 0,
            separation_violations: 0,
            invariant_violations: 0,
            mode_switches: 7,
            targets_reached: 4,
            completed: true,
            interventions: 5,
            time_in_sc_ms: 1_250,
        }
    }

    #[test]
    fn text_round_trip() {
        let record = sample_record();
        let parsed = record_from_text(&record_to_text(&record)).unwrap();
        assert_eq!(record, parsed);
    }

    #[test]
    fn parse_rejects_missing_and_malformed_fields() {
        assert!(matches!(
            record_from_text("scenario = x\n"),
            Err(GoldenError::Parse(_))
        ));
        let bad_digest = record_to_text(&sample_record()).replace("0x", "zz");
        assert!(matches!(
            record_from_text(&bad_digest),
            Err(GoldenError::Parse(_))
        ));
        // `completed` is a bool, not "anything but `true`".
        let bad_completed =
            record_to_text(&sample_record()).replace("completed = true", "completed = banana");
        let err = record_from_text(&bad_completed).unwrap_err();
        assert!(err.to_string().contains("`completed`"), "{err}");
        let not_completed = record_to_text(&sample_record()).replace("= true", "= false");
        assert!(!record_from_text(&not_completed).unwrap().completed);
    }

    /// The frame reader reports what it consumed, skips past a corrupt
    /// frame (including a non-UTF-8 one) and tells a torn frame apart.
    #[test]
    fn frames_round_trip_and_classify_torn_and_corrupt_bodies() {
        let mut stream = String::new();
        write_frame(&mut stream, "REC 0", &sample_record());
        let frame_len = stream.len();
        assert_eq!(
            stream,
            format!("REC 0\n{}END\n", record_to_text(&sample_record()))
        );
        let body = &stream.as_bytes()["REC 0\n".len()..];
        assert_eq!(
            read_frame(&mut &body[..]),
            (body.len(), Ok(sample_record()))
        );

        let mut bytes = body.to_vec();
        bytes[3] = 0xff;
        bytes.extend_from_slice(body);
        let mut input = &bytes[..];
        let (consumed, first) = read_frame(&mut input);
        assert_eq!(consumed, body.len());
        assert!(matches!(first, Err(FrameError::Corrupt(_))), "{first:?}");
        assert_eq!(read_frame(&mut input), (body.len(), Ok(sample_record())));

        for cut in [0, 1, body.len() - 1] {
            let (_, torn) = read_frame(&mut &body[..cut]);
            assert_eq!(torn, Err(FrameError::Torn), "cut at {cut} of {frame_len}");
        }
    }

    #[test]
    fn encoded_frames_match_freshly_written_ones() {
        let encoded = EncodedRecord::new(sample_record());
        assert_eq!(encoded.text(), record_to_text(&sample_record()));
        assert_eq!(encoded.record(), &sample_record());
        let (mut fresh, mut copied) = (String::new(), String::new());
        write_frame(&mut fresh, "REC 3", &sample_record());
        write_encoded_frame(&mut copied, "REC 3", &encoded);
        assert_eq!(copied, fresh);
    }

    /// A duplicated key parses to *something* only by picking one of the
    /// two values — a corrupted golden must be rejected instead, naming
    /// the duplicate line.
    #[test]
    fn parse_rejects_duplicate_fields_naming_the_line() {
        let duplicated = format!("{}seed = 99\n", record_to_text(&sample_record()));
        let err = record_from_text(&duplicated).unwrap_err();
        let GoldenError::Parse(message) = err else {
            panic!("expected a parse error, got {err:?}");
        };
        assert!(
            message.contains("duplicates field `seed`"),
            "unhelpful duplicate-key error: {message}"
        );
        assert!(
            message.contains("line 12"),
            "the error must name the offending line: {message}"
        );
    }

    /// Unknown keys and non-`key = value` junk previously parsed silently
    /// (the extra line was ignored); both must now fail loudly, because a
    /// typo'd key otherwise falls back to the *old* value semantics — and
    /// on the shard wire this is the only validation a frame gets.
    #[test]
    fn parse_rejects_unknown_fields_and_junk_lines() {
        let unknown = format!(
            "{}saftey_violations = 3\n",
            record_to_text(&sample_record())
        );
        let err = record_from_text(&unknown).unwrap_err();
        let GoldenError::Parse(message) = err else {
            panic!("expected a parse error, got {err:?}");
        };
        assert!(
            message.contains("unknown field `saftey_violations`"),
            "unhelpful unknown-key error: {message}"
        );
        let junk = format!("{}!!corrupt!!\n", record_to_text(&sample_record()));
        let err = record_from_text(&junk).unwrap_err();
        assert!(
            err.to_string().contains("not a `key = value` pair"),
            "unhelpful junk-line error: {err}"
        );
        // Blank lines remain harmless.
        let spaced = record_to_text(&sample_record()).replace('\n', "\n\n");
        assert_eq!(record_from_text(&spaced).unwrap(), sample_record());
    }

    #[test]
    fn golden_path_is_keyed_by_name_and_seed() {
        let scenario = Scenario::new("fig12a-rta").with_seed(3);
        let path = golden_path(Path::new("tests/golden"), &scenario);
        assert_eq!(path, Path::new("tests/golden").join("fig12a-rta-s3.golden"));
    }

    #[test]
    fn mismatch_display_mentions_blessing() {
        let expected = sample_record();
        let mut actual = sample_record();
        actual.digest ^= 1;
        let err = GoldenError::Mismatch {
            expected: Box::new(expected),
            actual: Box::new(actual),
        };
        let msg = err.to_string();
        assert!(msg.contains("SOTER_BLESS"));
        assert!(msg.contains("fig12a-rta"));
    }
}
