//! Untraced execution: the worker pool, one pass over a cell workload,
//! and one pass over the fleet. Only whole cells and whole fleet steps
//! are timed here; end-to-end metrics come from these passes.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

use react_core::{FleetAggregate, FleetSim, FleetSpec, RunMetrics, Scenario};

/// Runs `f(0..n)` on `threads` scoped workers pulling indices off a
/// shared counter (the same scheduling the repository's rayon shim
/// uses), returning results in index order.
pub fn pool<T: Send>(n: usize, threads: usize, f: impl Fn(usize) -> T + Sync) -> Vec<T> {
    let next = AtomicUsize::new(0);
    let mut out: Vec<Option<T>> = (0..n).map(|_| None).collect();
    let (f, next) = (&f, &next);
    std::thread::scope(|scope| {
        let workers: Vec<_> = (0..threads.clamp(1, n.max(1)))
            .map(|_| {
                scope.spawn(move || {
                    let mut done = Vec::new();
                    loop {
                        // Relaxed: the counter only hands out indices.
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= n {
                            break done;
                        }
                        done.push((i, f(i)));
                    }
                })
            })
            .collect();
        for w in workers {
            for (i, v) in w.join().expect("benchmark worker panicked") {
                out[i] = Some(v);
            }
        }
    });
    out.into_iter()
        .map(|v| v.expect("every index ran once"))
        .collect()
}

/// The string a panic carried.
pub fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// One cell's outputs (or its panic) and host seconds.
pub struct CellRun {
    pub metrics: Result<RunMetrics, String>,
    pub secs: f64,
}

/// One pass over a cell workload.
pub struct CellPass {
    pub runs: Vec<CellRun>,
    pub wall: f64,
}

/// Runs every cell through `Scenario::run`, the public entry point the
/// scenario and fault reports use.
pub fn cell_pass(cells: &[Scenario], threads: usize) -> CellPass {
    let started = Instant::now();
    let runs = pool(cells.len(), threads, |i| {
        let t0 = Instant::now();
        let metrics =
            catch_unwind(AssertUnwindSafe(|| cells[i].run().metrics)).map_err(panic_message);
        CellRun {
            metrics,
            secs: t0.elapsed().as_secs_f64(),
        }
    });
    CellPass {
        runs,
        wall: started.elapsed().as_secs_f64(),
    }
}

/// One pass over the fleet.
pub struct FleetPass {
    pub aggregate: Result<FleetAggregate, String>,
    pub wall: f64,
    /// Host seconds per shard.
    pub shard_secs: Vec<f64>,
    /// Per node: host milliseconds from its shard's start until its
    /// result was in (the node left the shard's heap).
    pub node_ms: Vec<f64>,
}

/// Runs the fleet shard by shard on the pool, each shard through
/// `FleetSim::from_spec_range` and its `step()` loop, merged in shard
/// order — what `run_fleet` does without a checkpoint. The loop reads
/// the clock only when a node finishes.
pub fn fleet_pass(spec: &FleetSpec, threads: usize) -> FleetPass {
    let started = Instant::now();
    let shards = pool(spec.shard_count(), threads, |shard| {
        let (start, end) = spec.shard_range(shard);
        let t0 = Instant::now();
        let mut sim = FleetSim::from_spec_range(spec, start, end)?;
        let mut live = sim.live_cells();
        let mut node_ms = Vec::with_capacity(end - start);
        loop {
            let more = sim.step();
            let now_live = sim.live_cells();
            if now_live < live {
                let ms = t0.elapsed().as_secs_f64() * 1e3;
                node_ms.extend(std::iter::repeat_n(ms, live - now_live));
                live = now_live;
            }
            if !more {
                break;
            }
        }
        let aggregate = sim.run();
        Ok::<_, String>((aggregate, t0.elapsed().as_secs_f64(), node_ms))
    });
    let mut aggregate = Ok(FleetAggregate::new(spec.bins));
    let mut shard_secs = Vec::new();
    let mut node_ms = Vec::new();
    for shard in shards {
        match (shard, &mut aggregate) {
            (Ok((agg, secs, ms)), Ok(total)) => {
                total.merge(&agg);
                shard_secs.push(secs);
                node_ms.extend(ms);
            }
            (Err(e), _) => aggregate = Err(e),
            (Ok(_), Err(_)) => {}
        }
    }
    FleetPass {
        aggregate,
        wall: started.elapsed().as_secs_f64(),
        shard_secs,
        node_ms,
    }
}
