//! The line-delimited text protocol spoken between the shard coordinator
//! and its worker subprocesses, over the workers' stdio.
//!
//! Every message is one UTF-8 line, except the record frame: a
//! [`WorkerMsg::Record`] is a `REC <index>` header followed by the record
//! body, written by [`write_frame`] and read by [`read_frame`] — the same
//! codec the golden files, daemon replies and the result-cache segment use,
//! so the strict golden parser doubles as wire validation.
//!
//! No plan state crosses the wire: each worker keeps its own plan cache
//! (see the `worker` module).
//!
//! | direction | message | meaning |
//! |---|---|---|
//! | coordinator → worker | `RUN <index> <seed> <scenario>` | run catalog scenario `<scenario>` with `<seed>`; report as matrix index `<index>` |
//! | coordinator → worker | `DONE` | no more jobs: finish and exit |
//! | worker → coordinator | `HELLO <version>` | greeting + protocol version, first line on stdout |
//! | worker → coordinator | `HB` | heartbeat (liveness; sent on an interval from a ticker thread) |
//! | worker → coordinator | `REC <index>` … `END` | one completed run record (frame described above) |
//! | worker → coordinator | `ERR <message>` | fatal worker-side error (unknown scenario, panicked job) |
//! | worker → coordinator | `BYE` | clean exit after the last job |

use soter_scenarios::campaign::RunRecord;
use soter_scenarios::golden::{read_frame, write_frame};
use std::fmt;
use std::io::{BufRead, Write};

/// Version tag carried by the `HELLO` greeting.  The coordinator refuses
/// to talk to a worker announcing a different version (see
/// `ServeError::ProtocolMismatch`).  History: 1 = the original RUN/REC
/// protocol; 2 = bidirectional plan-cache frames; 3 = those frames
/// removed again (a v2 worker would still send them).
pub const PROTOCOL_VERSION: u32 = 3;

/// A protocol violation: a line (or record frame) that does not parse.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProtocolError(pub String);

impl fmt::Display for ProtocolError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "protocol error: {}", self.0)
    }
}

impl std::error::Error for ProtocolError {}

/// Coordinator → worker messages (one line each on the worker's stdin).
#[derive(Debug, Clone, PartialEq)]
pub enum CoordMsg {
    /// Run the named catalog scenario with the given seed and report the
    /// result under matrix index `index`.
    Run {
        /// Position of this job in the campaign's deterministic matrix
        /// order (what the merger reassembles on).
        index: usize,
        /// Seed to apply to the resolved scenario.
        seed: u64,
        /// Catalog name resolved through `soter_scenarios::catalog::find`.
        scenario: String,
    },
    /// No more jobs will follow: drain outstanding work and exit.
    Done,
}

impl CoordMsg {
    /// Renders the message as its single wire line (no newline).
    pub fn to_line(&self) -> String {
        match self {
            CoordMsg::Run {
                index,
                seed,
                scenario,
            } => format!("RUN {index} {seed} {scenario}"),
            CoordMsg::Done => "DONE".to_string(),
        }
    }

    /// Parses one wire line.
    pub fn parse(line: &str) -> Result<CoordMsg, ProtocolError> {
        let line = line.trim_end();
        let bad = |what: &str| ProtocolError(format!("{what} in `{line}`"));
        match line.split_once(' ').unwrap_or((line, "")) {
            ("DONE", "") => Ok(CoordMsg::Done),
            ("RUN", rest) => {
                let mut parts = rest.splitn(3, ' ');
                let (index, seed, scenario) = (parts.next(), parts.next(), parts.next());
                Ok(CoordMsg::Run {
                    index: index
                        .and_then(|v| v.parse().ok())
                        .ok_or_else(|| bad("bad RUN index"))?,
                    seed: seed
                        .and_then(|v| v.parse().ok())
                        .ok_or_else(|| bad("bad RUN seed"))?,
                    scenario: scenario
                        .filter(|name| !name.is_empty())
                        .ok_or_else(|| bad("missing RUN scenario"))?
                        .to_string(),
                })
            }
            _ => Err(bad("unknown coordinator line")),
        }
    }
}

/// Worker → coordinator messages.
#[derive(Debug, Clone, PartialEq)]
pub enum WorkerMsg {
    /// Greeting: first line a worker writes.
    Hello {
        /// The worker's [`PROTOCOL_VERSION`].
        version: u32,
    },
    /// Liveness heartbeat.
    Heartbeat,
    /// One completed run.
    Record {
        /// Matrix index echoed from the corresponding [`CoordMsg::Run`].
        index: usize,
        /// The run's record.
        record: RunRecord,
    },
    /// Fatal worker-side error; the worker exits after sending it.
    Error {
        /// Human-readable description.
        message: String,
    },
    /// Clean exit after the last job.
    Bye,
}

impl WorkerMsg {
    /// Writes the message (all of its lines) to `out` and flushes, so a
    /// frame hits the pipe atomically with respect to this writer.
    pub fn write_to(&self, out: &mut dyn Write) -> std::io::Result<()> {
        match self {
            WorkerMsg::Hello { version } => writeln!(out, "HELLO {version}")?,
            WorkerMsg::Heartbeat => writeln!(out, "HB")?,
            WorkerMsg::Record { index, record } => {
                let mut frame = String::new();
                write_frame(&mut frame, format_args!("REC {index}"), record);
                out.write_all(frame.as_bytes())?;
            }
            WorkerMsg::Error { message } => writeln!(out, "ERR {}", message.replace('\n', " "))?,
            WorkerMsg::Bye => writeln!(out, "BYE")?,
        }
        out.flush()
    }

    /// Reads the next complete message from `input`, blocking as needed.
    /// Returns `Ok(None)` on clean end-of-stream (the worker's stdout
    /// closed *between* messages; EOF inside a record frame is an error).
    pub fn read_from(input: &mut dyn BufRead) -> Result<Option<WorkerMsg>, ProtocolError> {
        let mut line = Vec::new();
        match input.read_until(b'\n', &mut line) {
            Ok(0) => return Ok(None),
            Ok(_) => {}
            Err(e) => return Err(ProtocolError(format!("read error: {e}"))),
        }
        let line = std::str::from_utf8(&line)
            .map_err(|_| ProtocolError("worker line is not UTF-8".into()))?
            .trim_end();
        let bad = |what: &str| ProtocolError(format!("{what} in `{line}`"));
        Ok(Some(match line.split_once(' ').unwrap_or((line, "")) {
            ("HB", "") => WorkerMsg::Heartbeat,
            ("BYE", "") => WorkerMsg::Bye,
            ("HELLO", version) => WorkerMsg::Hello {
                version: version.parse().map_err(|_| bad("bad HELLO version"))?,
            },
            ("ERR", message) => WorkerMsg::Error {
                message: message.to_string(),
            },
            ("REC", index) => {
                let index = index.parse().map_err(|_| bad("bad REC index"))?;
                let record = read_frame(input)
                    .1
                    .map_err(|e| ProtocolError(format!("{e} #{index}")))?;
                WorkerMsg::Record { index, record }
            }
            _ => return Err(bad("unknown worker line")),
        }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::BufReader;

    fn sample_record(index: usize) -> RunRecord {
        RunRecord {
            scenario: "serve-smoke".into(),
            seed: index as u64,
            digest: 0xdead_beef ^ index as u64,
            safety_violations: 0,
            separation_violations: 0,
            invariant_violations: 0,
            mode_switches: 1,
            targets_reached: 2,
            completed: true,
            interventions: 1,
            time_in_sc_ms: 750,
        }
    }

    #[test]
    fn coord_messages_round_trip() {
        for msg in [
            CoordMsg::Run {
                index: 17,
                seed: 42,
                scenario: "fig12a-rta".into(),
            },
            CoordMsg::Done,
        ] {
            assert_eq!(CoordMsg::parse(&msg.to_line()).unwrap(), msg);
        }
        assert!(CoordMsg::parse("RUN x 1 a").is_err());
        assert!(CoordMsg::parse("RUN 1 1").is_err());
        assert!(CoordMsg::parse("FLY 1 1 a").is_err());
    }

    #[test]
    fn worker_messages_round_trip_through_a_byte_stream() {
        let messages = vec![
            WorkerMsg::Hello {
                version: PROTOCOL_VERSION,
            },
            WorkerMsg::Heartbeat,
            WorkerMsg::Record {
                index: 3,
                record: sample_record(3),
            },
            WorkerMsg::Record {
                index: 0,
                record: sample_record(0),
            },
            WorkerMsg::Error {
                message: "unknown scenario `zzz`".into(),
            },
            WorkerMsg::Bye,
        ];
        let mut wire = Vec::new();
        for msg in &messages {
            msg.write_to(&mut wire).unwrap();
        }
        let mut reader = BufReader::new(wire.as_slice());
        let mut parsed = Vec::new();
        while let Some(msg) = WorkerMsg::read_from(&mut reader).unwrap() {
            parsed.push(msg);
        }
        assert_eq!(parsed, messages);
    }

    #[test]
    fn corrupt_record_frames_are_rejected_by_the_strict_parser() {
        // A frame with a duplicated key: the golden parser (wire
        // validation) must refuse it rather than pick a value.
        let mut wire = Vec::new();
        WorkerMsg::Record {
            index: 1,
            record: sample_record(1),
        }
        .write_to(&mut wire)
        .unwrap();
        let corrupted = String::from_utf8(wire).unwrap().replace(
            "mode_switches = 1\n",
            "mode_switches = 1\nmode_switches = 2\n",
        );
        let err = WorkerMsg::read_from(&mut BufReader::new(corrupted.as_bytes())).unwrap_err();
        assert!(err.0.contains("duplicates field"), "{err}");
        // EOF inside a frame is an error, not a clean end-of-stream.
        let truncated = "REC 4\nscenario = x\n";
        let err = WorkerMsg::read_from(&mut BufReader::new(truncated.as_bytes())).unwrap_err();
        assert!(err.0.contains("EOF inside record frame"), "{err}");
    }
}
