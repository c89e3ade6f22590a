//! The pargcn benchmark: steady-state step time, set-up time, wire cost
//! and memory of distributed GCN training on fixed workloads, with an
//! outside-in per-layer trace. README.md defines every workload and metric;
//! `run.py` builds and runs it:
//!
//! ```text
//! python3 benchmark/run.py --workload fb-reddit-p2 --seed 1 --seconds 10 --trace 0
//! ```
//!
//! The benchmark drives the program only through public functions, times
//! each call from outside, and checks every run's outputs against the
//! repository's oracles (the trainer, the serial trainer, the per-batch
//! mini-batch path and the plans' traffic predictions). The last line of
//! standard output is the result: `correct`, `attempted`, `failed` and the
//! end-to-end metrics (untraced) or per-layer metrics (traced).

pub mod fullbatch;
pub mod minibatch;
pub mod outcome;
pub mod probes;
pub mod rig;
pub mod stats;
pub mod trace;
pub mod workload;

use outcome::{Outcome, END_TO_END, PER_LAYER};
use pargcn_util::json::Json;
use std::panic::{catch_unwind, AssertUnwindSafe};
use trace::Tracer;
use workload::{Inputs, Workload};

/// Set-ups per untraced run; `setup_s` is their median.
pub const SETUP_REPS: usize = 3;
/// Leading steps whose losses are checked against the oracles.
pub const ORACLE_STEPS: usize = 3;

/// Command-line options.
#[derive(Clone, Debug)]
pub struct Opts {
    pub workload: Workload,
    pub seed: u64,
    /// Length of the timed loop.
    pub seconds: f64,
    pub traced: bool,
    /// Where a traced run writes its spans.
    pub trace_out: Option<String>,
    /// Provenance the caller knows and the program cannot see.
    pub git: String,
    pub rustc: String,
}

impl Opts {
    pub fn parse(args: &[String]) -> Result<Opts, String> {
        let mut workload = None;
        let (mut seed, mut seconds, mut traced) = (None, None, None);
        let (mut trace_out, mut git, mut rustc) =
            (None, "unknown".to_string(), "unknown".to_string());
        let mut it = args.iter();
        while let Some(flag) = it.next() {
            let mut value = || it.next().cloned().ok_or(format!("{flag} needs a value"));
            match flag.as_str() {
                "--workload" => {
                    let v = value()?;
                    workload = Some(Workload::by_name(&v).ok_or(format!("unknown workload {v}"))?);
                }
                "--seed" => seed = Some(value()?.parse().map_err(|e| format!("--seed: {e}"))?),
                "--seconds" => {
                    let s: f64 = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                    if !(s > 0.0 && s.is_finite()) {
                        return Err("--seconds must be positive".into());
                    }
                    seconds = Some(s);
                }
                "--trace" => {
                    traced = Some(match value()?.as_str() {
                        "0" => false,
                        "1" => true,
                        v => return Err(format!("--trace takes 0 or 1, not {v}")),
                    })
                }
                "--trace-out" => trace_out = Some(value()?),
                "--git" => git = value()?,
                "--rustc" => rustc = value()?,
                other => return Err(format!("unknown argument {other}")),
            }
        }
        Ok(Opts {
            workload: workload.ok_or("--workload is required")?,
            seed: seed.ok_or("--seed is required")?,
            seconds: seconds.ok_or("--seconds is required")?,
            traced: traced.ok_or("--trace is required")?,
            trace_out,
            git,
            rustc,
        })
    }
}

/// Runs one workload: generates its inputs (untimed), then measures and
/// checks it.
pub fn measure(o: &Opts, tr: &mut Tracer) -> Outcome {
    let config = pargcn_bench::comm_experiment_config();
    let classes = *config.dims.last().expect("at least one layer");
    let inp = Inputs::generate(&o.workload, o.seed, config.dims[0], classes);
    if o.workload.minibatch {
        minibatch::run(&o.workload, &inp, o, tr, &config)
    } else {
        fullbatch::run(&o.workload, &inp, o, tr, &config)
    }
}

fn provenance(o: &Opts) -> Json {
    let w = &o.workload;
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut fields = vec![
        ("workload", Json::Str(w.name.into())),
        ("git", Json::Str(o.git.clone())),
        ("rustc", Json::Str(o.rustc.clone())),
        ("nproc", Json::Num(nproc as f64)),
        ("p", Json::Num(w.p as f64)),
        ("threads", Json::Num(w.threads as f64)),
        (
            "kernel",
            Json::Str(w.spec().kernel.expect("pinned").name().into()),
        ),
        ("seed", Json::Num(o.seed as f64)),
        ("seconds", Json::Num(o.seconds)),
        ("traced", Json::Bool(o.traced)),
        ("oversubscribed", Json::Bool(w.p * w.threads > nproc)),
    ];
    if w.minibatch {
        let note = "the engine's batch-preparation thread runs beside the ranks";
        fields.push(("note", Json::Str(note.into())));
    }
    Json::obj(fields)
}

/// The program entry point; `traced` tells whether this binary counts
/// allocations (it must match `--trace`). Returns the exit code.
pub fn main(traced: bool) -> i32 {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let o = match Opts::parse(&args) {
        Ok(o) if o.traced == traced => o,
        Ok(_) => {
            eprintln!("--trace {} needs the other binary", u8::from(!traced));
            return 2;
        }
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!("usage: --workload <name> --seed <n> --seconds <s> --trace <0|1> [--trace-out <path>]");
            return 2;
        }
    };
    println!(
        "{}",
        Json::obj(vec![("provenance", provenance(&o))]).to_string_compact()
    );
    let mut tr = Tracer::new(o.traced);
    let out = match catch_unwind(AssertUnwindSafe(|| measure(&o, &mut tr))) {
        Ok(out) => out,
        Err(_) => {
            let failed = Outcome {
                attempted: 1,
                problems: vec!["panic".into()],
                ..Outcome::default()
            };
            println!("{}", failed.result_json(&[]).to_string_compact());
            return 1;
        }
    };
    let notes = out.notes.iter().map(|(k, v)| (*k, v.clone())).collect();
    println!(
        "{}",
        Json::obj(vec![("notes", Json::obj(notes))]).to_string_compact()
    );
    for p in &out.problems {
        eprintln!("check failed: {p}");
    }
    if let Some(path) = &o.trace_out {
        if let Err(e) = std::fs::write(path, tr.to_chrome_json().to_string_compact()) {
            eprintln!("error: writing {path}: {e}");
            return 1;
        }
    }
    let names: &[&str] = if o.traced { &PER_LAYER } else { &END_TO_END };
    let missing: Vec<&&str> = names.iter().filter(|n| out.get(n).is_none()).collect();
    if !missing.is_empty() {
        eprintln!("error: metrics not measured: {missing:?}");
        return 1;
    }
    println!("{}", out.result_json(names).to_string_compact());
    0
}
