//! The repo's benchmark: five paper-shaped workloads through the ADIO
//! driver on the wall clock, with per-layer attribution. See README.md.
//!
//! ```text
//! univistor-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! univistor-benchmark [--quick] [--seed <n>] [--seconds <s>]   # every workload, both runs
//! univistor-benchmark --validate BENCHMARK.json
//! ```

mod harness;
mod metrics;
mod probes;
mod shapes;
mod stats;
mod timed;
mod validate;

use harness::{peak_rss_mib, pin_to_one_cpu, run_floor, run_rep, set_up_only, Mode, Rep};
use metrics::{Attribution, MetricDef, Values, END_TO_END, PER_LAYER};
use probes::{flush_leaves, FlushLeaves, LeafTimes, ProbeDriver};
use shapes::{Shape, Variant, Workload};
use std::cell::RefCell;
use std::collections::BTreeSet;
use std::io::{BufWriter, Write};
use std::process::{Command, ExitCode};
use std::sync::Arc;
use std::time::Instant;
use timed::{Log, PhaseKind, TimedDriver};
use univistor_obs::Json;

struct Args {
    workload: Option<Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
    /// One warm-up and one timed rep, whatever `seconds` says.
    quick: bool,
    validate: Option<String>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 1,
        seconds: 15.0,
        trace: false,
        quick: false,
        validate: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                args.workload =
                    Some(Workload::parse(&name).ok_or_else(|| format!("no workload '{name}'"))?);
            }
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(0.0..=170.0).contains(&args.seconds) {
                    return Err("--seconds must be within 0..=170".into());
                }
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not '{other}'")),
                }
            }
            "--quick" => args.quick = true,
            "--validate" => args.validate = Some(value()?),
            other => return Err(format!("unknown argument '{other}'")),
        }
    }
    Ok(args)
}

fn host_facts() -> String {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let load = std::fs::read_to_string("/proc/loadavg").unwrap_or_default();
    let load: Vec<&str> = load.split_whitespace().take(3).collect();
    format!(
        "nproc={nproc} loadavg={} rustc=\"{}\"",
        load.join("/"),
        env!("BENCHMARK_RUSTC")
    )
}

/// Repeat `rep` until `seconds` have passed and at least `min` reps ran
/// (`quick`: exactly one).
fn reps_for(seconds: f64, min: usize, quick: bool, mut rep: impl FnMut() -> Rep) -> Vec<Rep> {
    let t = Instant::now();
    let mut reps = Vec::new();
    loop {
        reps.push(rep());
        let enough = reps.len() >= min && t.elapsed().as_secs_f64() >= seconds;
        if quick || enough {
            return reps;
        }
    }
}

struct Outcome {
    attempted: u64,
    failed: u64,
    values: Values,
}

fn tally(reps: &[&[Rep]]) -> (u64, u64) {
    let all = reps.iter().flat_map(|r| r.iter());
    all.fold((0, 0), |(a, f), r| (a + r.attempted(), f + r.failed()))
}

/// The untraced run: every end-to-end metric.
fn run_end_to_end(shape: &Arc<Shape>, args: &Args) -> Outcome {
    let warm = run_rep(shape, Variant::Base, Mode::VERIFIED);
    let reps = reps_for(args.seconds, 3, args.quick, || {
        run_rep(shape, Variant::Base, Mode::UNTRACED)
    });

    // `setup_s` is sampled beyond the reps while a set-up is cheap, so its
    // median stands on more than a handful of sub-millisecond timings.
    let mut setups: Vec<f64> = reps.iter().map(|r| r.setup_s).collect();
    let t = Instant::now();
    while !args.quick && setups.len() < 256 && t.elapsed().as_secs_f64() < 0.25 {
        setups.push(set_up_only(shape));
    }

    let per_rep: Vec<Values> = reps.iter().map(metrics::end_to_end).collect();
    for v in &per_rep {
        let fields = v.iter().map(|(&k, &x)| (k, Json::Number(x)));
        println!("rep {}", Json::object(fields).render());
    }
    let mut values = metrics::best_over_reps(&per_rep);
    values.insert("setup_s", stats::median(&setups));
    values.insert("peak_rss_mib", peak_rss_mib());
    println!(
        "reps: 1 verified warm-up + {} timed, {} set-ups",
        reps.len(),
        setups.len()
    );
    let (attempted, failed) = tally(&[&[warm], &reps]);
    Outcome {
        attempted,
        failed,
        values,
    }
}

/// The traced run: every per-layer metric, and the span file.
fn run_per_layer(shape: &Arc<Shape>, args: &Args) -> Outcome {
    let w = shape.workload;
    let warm = run_rep(shape, Variant::Base, Mode::VERIFIED);
    let base = reps_for(args.seconds * 0.4, 2, args.quick, || {
        run_rep(shape, Variant::Base, Mode::UNTRACED)
    });
    let traced = reps_for(args.seconds * 0.15, 1, args.quick, || {
        run_rep(shape, Variant::Base, Mode::TRACED)
    });
    match write_spans(w, &traced) {
        Ok((path, spans)) => println!("trace: {spans} spans in {path}"),
        Err(e) => println!("trace: could not write the span file: {e}"),
    }

    let floor_wall_s = run_floor(shape);
    let (leaves, flush, probe_log, probe_ok) = probe_leaves(shape);
    let variants: Vec<(Variant, Rep)> = shape
        .variants()
        .into_iter()
        .map(|v| (v, run_rep(shape, v, Mode::UNTRACED)))
        .collect();
    // 0 when the workload has no such variant.
    let variant_wall = |v: Variant| {
        let rep = variants.iter().find(|(x, _)| *x == v);
        rep.map_or(0.0, |(_, r)| r.wall_s)
    };

    let missing = RefCell::new(BTreeSet::new());
    let per_rep: Vec<Values> = base
        .iter()
        .map(|r| metrics::per_layer_of_rep(r, &missing))
        .collect();
    let mut values = metrics::best_over_reps(&per_rep);
    // Walls are compared best against best: interference only adds time.
    let walls = |reps: &[Rep]| reps.iter().map(|r| r.wall_s).fold(f64::INFINITY, f64::min);
    metrics::attribute(
        &mut values,
        &Attribution {
            base_wall_s: walls(&base),
            traced_wall_s: walls(&traced),
            floor_wall_s,
            leaves,
            flush,
            no_checksums_wall_s: variant_wall(Variant::NoChecksums),
            no_flush_wall_s: variant_wall(Variant::NoFlush),
            locked_wall_s: variant_wall(Variant::Locked),
            bytes_written: base[0].bytes_written(),
            bytes_read: base[0].bytes_read(),
            flushes: shape.flushes(),
        },
    );

    values.insert("harness.reps", base.len() as f64);
    let (repeat, spread) = match metrics::counts_repeat(&base) {
        Ok(()) => {
            println!("counts_repeat: true over {} reps", base.len());
            (1.0, 0.0)
        }
        Err((name, spread)) => {
            println!("counts_repeat: false, first differing counter {name}, max spread {spread}%");
            (0.0, spread)
        }
    };
    values.insert("harness.counts_repeat", repeat);
    values.insert("harness.counts_max_spread_pct", spread);
    let missing: Vec<String> = missing.into_inner().into_iter().collect();
    println!("missing_counters: [{}]", missing.join(", "));

    let variant_reps: Vec<Rep> = variants.into_iter().map(|(_, r)| r).collect();
    let (attempted, mut failed) = tally(&[&[warm], &base, &traced, &variant_reps]);
    failed += probe_log.failed + u64::from(!probe_ok);
    // The same calls in the same order on a fresh job: counts that differ
    // mean the program, not the host, is not repeatable.
    if w.counts_must_repeat() && repeat == 0.0 {
        failed += 1;
    }
    Outcome {
        attempted: attempted + probe_log.attempted,
        failed,
        values,
    }
}

/// Run the generator through the leaves-only driver, and the flush-side
/// leaves for the files the workload makes durable. The `bool` is false
/// when a leaf refused a call.
fn probe_leaves(shape: &Shape) -> (LeafTimes, FlushLeaves, Log, bool) {
    let cfg = shape.config(Variant::Base);
    let probe = TimedDriver::new(ProbeDriver::new(cfg.clone()), Instant::now(), false, None);
    probe.phase(PhaseKind::Write, "preload");
    let mut ok = shape.preload(&probe).is_ok();
    probe.inner().start_recording();
    ok &= shape.producer(&probe).is_ok();
    if shape.workload.coupled() {
        ok &= shape.consumer(&probe).is_ok();
    }
    let (probe, log) = probe.finish();
    let flush = if shape.flushes() {
        flush_leaves(shape, &cfg).unwrap_or_else(|e| {
            ok = false;
            println!("probe: flush leaves failed: {e}");
            FlushLeaves::default()
        })
    } else {
        FlushLeaves::default()
    };
    (probe.finish(), flush, log, ok)
}

/// Where the traced run leaves its span files, from the repo root (where
/// `BENCHMARK.json`'s command runs).
const OUT_DIR: &str = "benchmark/out";

fn write_spans(w: Workload, traced: &[Rep]) -> std::io::Result<(String, usize)> {
    std::fs::create_dir_all(OUT_DIR)?;
    let path = format!("{OUT_DIR}/trace_{}.jsonl", w.name());
    let mut out = BufWriter::new(std::fs::File::create(&path)?);
    let mut spans = 0;
    for (rep, r) in traced.iter().enumerate() {
        for (app, log) in r.logs.iter().enumerate() {
            log.write_jsonl(&mut out, w.name(), rep, app as u32)?;
            spans += log.phases.len() + log.spans.len();
        }
    }
    out.flush()?;
    Ok((path, spans))
}

/// Print the table and, as the last line, the result object.
fn report(w: Workload, defs: &[MetricDef], outcome: &Outcome) -> bool {
    let correct = outcome.failed == 0;
    let mut fields = Vec::new();
    for def in defs {
        // `+ 0.0` turns the -0.0 an empty sum yields into 0.0.
        let value = outcome.values[def.name] + 0.0;
        assert!(value.is_finite(), "{} is not a number", def.name);
        println!(
            "{:<14} {:<36} {:>16.6} {}",
            w.name(),
            def.name,
            value,
            def.unit
        );
        fields.push((
            def.name,
            Json::object([
                ("value", Json::Number(value)),
                ("unit", Json::string(def.unit)),
            ]),
        ));
    }
    println!(
        "{:<14} fail_ratio {}/{}",
        w.name(),
        outcome.failed,
        outcome.attempted
    );
    let result = Json::object([
        ("correct", Json::Bool(correct)),
        ("attempted", Json::Number(outcome.attempted as f64)),
        ("failed", Json::Number(outcome.failed as f64)),
        ("metrics", Json::object(fields)),
    ]);
    println!("{}", result.render());
    correct
}

/// Every workload, untraced then traced, each in a process of its own (so
/// `peak_rss_mib` is the workload's).
fn run_all(args: &Args) -> ExitCode {
    let exe = std::env::current_exe().expect("the running binary has a path");
    let mut ok = true;
    for w in Workload::ALL {
        for trace in ["0", "1"] {
            let mut cmd = Command::new(&exe);
            cmd.args(["--workload", w.name(), "--trace", trace]);
            cmd.args(["--seed", &args.seed.to_string()]);
            cmd.args(["--seconds", &args.seconds.to_string()]);
            if args.quick {
                cmd.arg("--quick");
            }
            // The child inherits stdout; `status` waits for it to end.
            ok &= cmd.status().is_ok_and(|s| s.success());
        }
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        println!("FAILED: at least one workload reported failed operations");
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("univistor-benchmark: {e}");
            return ExitCode::from(2);
        }
    };
    if let Some(path) = &args.validate {
        return validate::run(path);
    }
    let Some(w) = args.workload else {
        return run_all(&args);
    };
    // Host facts first: pinning changes the parallelism the process sees.
    let host = host_facts();
    let pinned = match w.pinned().then(pin_to_one_cpu) {
        None => "no".to_string(),
        Some(Some(cpu)) => format!("cpu{cpu}"),
        Some(None) => "refused".to_string(),
    };
    println!(
        "host: {host} pinned={pinned} workload={} seed={} seconds={} trace={}",
        w.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    let shape = Arc::new(Shape::new(w, args.seed));
    let correct = if args.trace {
        report(w, PER_LAYER, &run_per_layer(&shape, &args))
    } else {
        report(w, END_TO_END, &run_end_to_end(&shape, &args))
    };
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
