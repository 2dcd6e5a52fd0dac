//! Per-operation probes of the heap and collector primitives, called
//! directly through the public `mgc-heap` and `mgc-core` APIs. Each probe
//! builds a fresh heap outside its timed region, times one batch of the
//! operation, and repeats; the median batch is reported. Object sizes are
//! the workload's own mean object size, so the probes run on the
//! demographics the workload produces.

use crate::trace::Tracer;
use mgc_core::{
    evacuate_roots, flip_to_from_space, forward_parallel, scan_pass, Collector, GcConfig,
    ParallelGcState,
};
use mgc_heap::{
    Addr, DescriptorTable, GcHeap, Heap, HeapConfig, SharedGlobalHeap, ThreadedLayout, Word,
    WorkerHeap,
};
use mgc_numa::NodeId;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Instant;

/// Repetitions of each probe; the median is reported.
const ROUNDS: usize = 7;

/// Largest object the probes allocate, in words (a mean above this is
/// clamped so an object still fits the nursery many times over).
const MAX_PROBE_WORDS: usize = 256;

fn median(mut values: Vec<f64>) -> f64 {
    values.sort_by(f64::total_cmp);
    values[values.len() / 2]
}

fn collector(vprocs: usize, nodes: usize) -> Collector {
    let config = GcConfig {
        verify_after_gc: false,
        ..GcConfig::default()
    };
    Collector::new(config, vprocs, nodes)
}

/// A one-worker threaded heap view over a fresh shared global heap.
fn worker() -> WorkerHeap {
    let config = HeapConfig::default();
    let layout = ThreadedLayout::new(&config, 1, 1);
    let global = Arc::new(SharedGlobalHeap::new(layout.chunk_words(), 1));
    WorkerHeap::new(
        0,
        layout,
        NodeId::new(0),
        global,
        Arc::new(DescriptorTable::new()),
    )
}

/// Fills the nursery with `words`-word objects and returns every
/// `keep_every`-th one as a root (the rest is garbage).
fn fill_nursery(heap: &mut WorkerHeap, words: usize, keep_every: usize) -> Vec<Addr> {
    let payload: Vec<Word> = (0..words as u64).collect();
    let mut roots = Vec::new();
    let mut n = 0usize;
    while let Ok(obj) = heap.alloc_raw(&payload) {
        if n.is_multiple_of(keep_every) {
            roots.push(obj);
        }
        n += 1;
    }
    roots
}

/// Times `op` once per round on state made by `setup`; `op` returns the
/// units of work it did, and the median ns per unit is reported.
fn probe<S>(
    tracer: &mut Tracer,
    name: &'static str,
    mut setup: impl FnMut() -> S,
    mut op: impl FnMut(&mut S) -> f64,
) -> f64 {
    let id = tracer.begin(name);
    let mut per_unit = Vec::with_capacity(ROUNDS);
    for _ in 0..ROUNDS {
        let mut state = setup();
        let start = Instant::now();
        let units = op(&mut state);
        let ns = start.elapsed().as_nanos() as f64;
        per_unit.push(ns / units.max(1.0));
    }
    tracer.end(id);
    median(per_unit)
}

/// Runs every probe with objects of `mean_words` words and returns
/// `(metric name, value)` pairs.
pub fn run_probes(tracer: &mut Tracer, mean_words: usize) -> Vec<(&'static str, f64)> {
    let words = mean_words.clamp(1, MAX_PROBE_WORDS);
    let payload: Vec<Word> = (0..words as u64).collect();
    let mut out = Vec::new();

    // mgc-heap: nursery bump allocation, until the nursery is full.
    out.push((
        "heap.op.bump_alloc_ns",
        probe(tracer, "mgc-heap::WorkerHeap::alloc_raw", worker, |heap| {
            let mut n = 0u64;
            while heap.alloc_raw(&payload).is_ok() {
                n += 1;
            }
            n as f64
        }),
    ));

    // mgc-heap: promotion of nursery objects into the shared global heap.
    let promote_setup = || {
        let mut heap = worker();
        let objs: Vec<Addr> = fill_nursery(&mut heap, words, 2);
        (heap, collector(1, 1), objs, Vec::new())
    };
    out.push((
        "heap.op.promote_ns_per_word",
        probe(
            tracer,
            "mgc-core::Collector::promote",
            promote_setup,
            |(heap, collector, objs, promoted)| {
                let mut bytes = 0u64;
                for &obj in objs.iter() {
                    let (addr, outcome) = collector.promote(heap, 0, obj);
                    promoted.push(addr);
                    bytes += outcome.promoted_bytes;
                }
                bytes as f64 / 8.0
            },
        ),
    ));

    // mgc-heap: field reads of promoted (global) objects through the
    // worker's chunk-directory cache.
    let read_setup = || {
        let mut heap = worker();
        let objs = fill_nursery(&mut heap, words, 2);
        let mut collector = collector(1, 1);
        let promoted: Vec<Addr> = objs
            .iter()
            .map(|&obj| collector.promote(&mut heap, 0, obj).0)
            .collect();
        (heap, promoted)
    };
    out.push((
        "heap.op.global_read_ns",
        probe(
            tracer,
            "mgc-heap::WorkerHeap::read_field",
            read_setup,
            |(heap, promoted)| {
                let mut sum = 0u64;
                let mut reads = 0u64;
                for _ in 0..4 {
                    for &obj in promoted.iter() {
                        for i in 0..words {
                            sum = sum.wrapping_add(heap.read_field(obj, i));
                        }
                        reads += words as u64;
                    }
                }
                std::hint::black_box(sum);
                reads as f64
            },
        ),
    ));

    // mgc-heap: chunk leases from the shared pool (the first round creates
    // chunks; the median round reuses released ones).
    let global = SharedGlobalHeap::new(
        ThreadedLayout::new(&HeapConfig::default(), 1, 1).chunk_words(),
        1,
    );
    out.push((
        "heap.op.chunk_acquire_ns",
        probe(
            tracer,
            "mgc-heap::SharedGlobalHeap::acquire",
            || Vec::with_capacity(64),
            |leased| {
                for _ in 0..64 {
                    leased.push(global.acquire(NodeId::new(0)));
                }
                let n = leased.len() as f64;
                for chunk in leased.drain(..) {
                    global.release(&chunk);
                }
                n
            },
        ),
    ));

    // mgc-core: a minor collection of a full nursery, a quarter live.
    let minor_setup = || {
        let mut heap = worker();
        let roots = fill_nursery(&mut heap, words, 4);
        (heap, collector(1, 1), roots)
    };
    out.push((
        "core.op.minor_ns_per_kb",
        probe(
            tracer,
            "mgc-core::Collector::minor",
            minor_setup,
            |(heap, collector, roots)| collector.minor(heap, 0, roots).copied_bytes as f64 / 1024.0,
        ),
    ));

    // mgc-core: a major collection after two minors have aged the data.
    let major_setup = || {
        let (mut heap, mut collector, mut roots) = minor_setup();
        collector.minor(&mut heap, 0, &mut roots);
        collector.minor(&mut heap, 0, &mut roots);
        (heap, collector, roots)
    };
    out.push((
        "core.op.major_ns_per_kb",
        probe(
            tracer,
            "mgc-core::Collector::major",
            major_setup,
            |(heap, collector, roots)| {
                collector.major(heap, 0, roots).promoted_bytes as f64 / 1024.0
            },
        ),
    ));

    // mgc-core: the parallel global collector's forwarding of root objects
    // out of from-space, and its Cheney scan of linked data.
    let from_space_setup = |linked: bool| {
        let mut heap = worker();
        let mut collector = collector(1, 1);
        let mut roots = Vec::new();
        let mut list = Addr::NULL;
        let mut n = 0usize;
        while let Ok(leaf) = heap.alloc_raw(&payload) {
            if linked {
                let Ok(node) = heap.alloc_vector(&[leaf.raw(), list.raw()]) else {
                    break;
                };
                list = node;
                n += 1;
                if n.is_multiple_of(64) {
                    roots.push(collector.promote(&mut heap, 0, list).0);
                    list = Addr::NULL;
                }
            } else {
                roots.push(collector.promote(&mut heap, 0, leaf).0);
            }
        }
        heap.retire_current_chunk();
        flip_to_from_space(heap.shared_global());
        (heap, roots, ParallelGcState::new())
    };
    out.push((
        "core.op.forward_ns_per_word",
        probe(
            tracer,
            "mgc-core::forward_parallel",
            || from_space_setup(false),
            |(heap, roots, state)| {
                for root in roots.iter_mut() {
                    *root = forward_parallel(heap, *root, state);
                }
                state.copied_bytes.load(Ordering::Relaxed) as f64 / 8.0
            },
        ),
    ));
    let scan_setup = || {
        let (mut heap, mut roots, state) = from_space_setup(true);
        evacuate_roots(&mut heap, &mut roots, &state);
        let before = state.copied_bytes.load(Ordering::Relaxed);
        (heap, state, before)
    };
    out.push((
        "core.op.scan_ns_per_word",
        probe(
            tracer,
            "mgc-core::scan_pass",
            scan_setup,
            |(heap, state, before)| {
                loop {
                    state.reset_work_index();
                    if !scan_pass(heap, state) {
                        break;
                    }
                }
                (state.copied_bytes.load(Ordering::Relaxed) - *before) as f64 / 8.0
            },
        ),
    ));

    // mgc-core: the simulated backend's sequential global collection over
    // two vprocs' promoted data, a quarter live.
    let seq_setup = || {
        let nodes = [NodeId::new(0), NodeId::new(1)];
        let mut heap = Heap::new(HeapConfig::default(), &nodes, 2);
        let mut collector = collector(2, 2);
        let mut roots = vec![Vec::new(), Vec::new()];
        for (vproc, vproc_roots) in roots.iter_mut().enumerate() {
            let mut n = 0usize;
            while let Ok(obj) = heap.alloc_raw(vproc, &payload) {
                let (promoted, _) = collector.promote(&mut heap, vproc, obj);
                if n.is_multiple_of(4) {
                    vproc_roots.push(promoted);
                }
                n += 1;
            }
        }
        (heap, collector, roots)
    };
    out.push((
        "core.op.seq_global_ns_per_kb",
        probe(
            tracer,
            "mgc-core::Collector::global",
            seq_setup,
            |(heap, collector, roots)| collector.global(heap, roots).copied_bytes as f64 / 1024.0,
        ),
    ));
    out
}
