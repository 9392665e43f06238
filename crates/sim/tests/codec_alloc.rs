//! The codec's allocation contract: encoding a `TaskSpec` or a
//! `TaskRecord` into a `String` with room to spare, and decoding a
//! `TaskSpec`, perform no heap allocation at all — in debug builds too,
//! where every fast-path number is also checked against the std
//! formatter.
//!
//! Method: a counting [`GlobalAlloc`] wrapper around [`System`] bumps a
//! thread-local counter on every `alloc`/`realloc`/`alloc_zeroed`, so
//! other test threads cannot pollute the count.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use gfs_sim::TaskRecord;
use gfs_types::{CheckpointPlan, GpuDemand, GpuModel, OrgId, Priority, SimTime, TaskSpec};
use serde::de::Parser;
use serde::{Deserialize, Serialize};

struct CountingAlloc;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn bump() {
    ALLOCS.with(|c| c.set(c.get() + 1));
}

// SAFETY: delegates every operation to `System` unchanged; the counter
// update is a plain thread-local store and never allocates.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        bump();
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        bump();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        bump();
        System.alloc_zeroed(layout)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Allocation count of `f` on this thread.
fn count_allocs<R>(f: impl FnOnce() -> R) -> (u64, R) {
    let before = ALLOCS.with(Cell::get);
    let out = f();
    (ALLOCS.with(Cell::get) - before, out)
}

/// Every field set, and every number kind: integers, an integral `f64`
/// (fast path), a fractional one (std formatter), `Some`/`None`, unit and
/// struct variants.
fn specs() -> Vec<TaskSpec> {
    let spot = TaskSpec::builder(u64::MAX - 7)
        .org(OrgId::new(31))
        .priority(Priority::Spot)
        .gpu_model(GpuModel::A100)
        .gpus_per_pod(GpuDemand::fraction(0.375).expect("a valid fraction"))
        .duration_secs(86_399)
        .submit_at(SimTime::from_secs(1_234_567_890))
        .checkpoint(CheckpointPlan::Periodic { interval: 1_800 })
        .guarantee_secs(7_200)
        .build()
        .expect("a valid spot task");
    let hp = TaskSpec::builder(0)
        .pods(4)
        .gpus_per_pod(GpuDemand::whole(8))
        .build()
        .expect("a valid HP task");
    vec![spot, hp]
}

fn record(spec: &TaskSpec) -> TaskRecord {
    TaskRecord {
        id: spec.id,
        priority: spec.priority,
        org: spec.org,
        total_gpus: spec.total_gpus(),
        pods: spec.pods,
        work_secs: spec.duration_secs,
        submit: spec.submit_at,
        first_start: Some(SimTime::from_secs(99)),
        finish: None,
        queued_secs: 3,
        runs: 2,
        evictions: 1,
        displacements: 5,
        migrations: 0,
    }
}

#[test]
fn encoding_and_decoding_a_task_allocate_nothing() {
    for spec in specs() {
        let rec = record(&spec);
        let mut out = String::with_capacity(4096);
        let (spec_allocs, ()) = count_allocs(|| spec.serialize_json(&mut out));
        let spec_json = out.clone();
        out.clear();
        let (rec_allocs, ()) = count_allocs(|| rec.serialize_json(&mut out));
        assert_eq!(spec_allocs, 0, "encoding {spec_json}");
        assert_eq!(rec_allocs, 0, "encoding {out}");
        assert_eq!(spec_json, serde_json::to_string(&spec).expect("encodes"));

        let (decode_allocs, back) =
            count_allocs(|| TaskSpec::deserialize_json(&mut Parser::new(&spec_json)));
        assert_eq!(decode_allocs, 0, "decoding {spec_json}");
        assert_eq!(back.as_ref(), Ok(&spec));
        assert_eq!(
            serde_json::from_str::<TaskRecord>(&out).expect("decodes"),
            rec
        );
    }
}
