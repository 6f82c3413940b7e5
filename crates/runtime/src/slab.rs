//! Per-worker task slabs: the allocation-free spawn path.
//!
//! Each worker owns a [`Slab`] of fixed-size [`Slot`]s. A spawn from a
//! worker thread whose closure and output fit [`PAYLOAD_BYTES`] takes a
//! slot off the owner-local free list, writes the closure in place, and
//! pushes a generation-checked [`SlabSlotRef`] into the scheduler —
//! no allocator, no refcounts. Slots freed by another thread (a thief
//! that ran the task, or a future dropped off-worker) return through a
//! lock-free Treiber stack the owner drains on its next allocation.
//!
//! # Slot lifecycle
//!
//! A slot moves through three phases guarded by two atomics:
//!
//! 1. **Claim** — exactly one of {runner, queue-teardown} wins
//!    `lifecycle.fetch_or(CLAIMED)` and owns the closure.
//! 2. **Completion** — the claimant publishes an outcome
//!    (`outcome` + `ready` + gate notify), mirroring
//!    [`crate::future::Shared::finish`].
//! 3. **Release** — the runner sets `RUNNER_DONE`, the future side sets
//!    `FUTURE_DONE` (plus `TAKEN` if it consumed the output). Whichever
//!    RMW observes the other side's bit already set performs cleanup and
//!    frees the slot. The RMW total order on `lifecycle` makes the
//!    cleanup exactly-once.
//!
//! # Generation protocol
//!
//! `gen` is bumped with `Release` ordering *before* the slot enters a
//! free list. A stale handle validating `gen` with `Acquire` therefore
//! either sees the old generation (slot not yet reusable — but then the
//! handle is still attached, so this cannot happen for live handles) or
//! the bumped one and rejects. The ordering matters: bump-after-push
//! would let the owner recycle a slot whose generation still matches a
//! dead handle (see the `slab-gen-bump-after-push` model mutant).
//!
//! # Remote return path
//!
//! `remote_head` is a push-only Treiber stack: freers CAS with
//! `Release`, the owner drains the whole chain with one
//! `swap(NIL, Acquire)`. Because pops never race pushes on individual
//! nodes there is no ABA. The release sequence on the head makes every
//! freer's `next_free` store — and its generation bump — visible to the
//! draining owner (see the `slab-remote-push-relaxed` model mutant).

use crate::prim::{mutation_armed, AtomicU64, AtomicU8, AtomicUsize, Ordering};
use crate::runtime::RuntimeInner;
use crate::sync::EventGate;
use std::any::Any;
use std::cell::UnsafeCell;
use std::marker::PhantomData;
use std::mem::MaybeUninit;
use std::panic::AssertUnwindSafe;
use std::sync::{OnceLock, Weak};

/// Free-list terminator.
const NIL: usize = usize::MAX;

/// Inline payload capacity per slot; closures or outputs larger than
/// this (or more aligned than [`PAYLOAD_ALIGN`]) take the heap
/// fallback path in `queue_task`.
pub(crate) const PAYLOAD_BYTES: usize = 128;
pub(crate) const PAYLOAD_ALIGN: usize = 16;

/// Slots per worker slab: 128-byte-aligned cells of a few hundred bytes,
/// so on the order of 1–2 MiB per worker.
pub(crate) const SLOTS: usize = 4096;

// Lifecycle bits.
const CLAIMED: u8 = 1;
const RUNNER_DONE: u8 = 2;
const FUTURE_DONE: u8 = 4;
const TAKEN: u8 = 8;

// Outcome codes published by the claimant.
pub(crate) const OUTCOME_PENDING: u8 = 0;
pub(crate) const OUTCOME_VALUE: u8 = 1;
pub(crate) const OUTCOME_PANICKED: u8 = 2;
pub(crate) const OUTCOME_CANCELLED: u8 = 3;

/// `true` when `F -> T` fits a slot inline (the panic payload
/// `Box<dyn Any + Send>` is two words and always fits).
pub(crate) const fn task_fits<T, F>() -> bool {
    std::mem::size_of::<F>() <= PAYLOAD_BYTES
        && std::mem::align_of::<F>() <= PAYLOAD_ALIGN
        && std::mem::size_of::<T>() <= PAYLOAD_BYTES
        && std::mem::align_of::<T>() <= PAYLOAD_ALIGN
}

/// Type-erased operations over a slot's payload, monomorphized per
/// `(T, F)` pair — the slab itself stays non-generic.
pub(crate) struct SlotVTable {
    /// Consume the closure in place, leave the output (or panic
    /// payload) in place, return the outcome code.
    run: unsafe fn(*mut u8) -> u8,
    /// Drop an un-run closure in place.
    drop_closure: unsafe fn(*mut u8),
    /// Drop an un-taken output (`OUTCOME_VALUE`) or panic payload
    /// (`OUTCOME_PANICKED`) in place.
    drop_output: unsafe fn(*mut u8, u8),
}

struct VTableOf<T, F>(PhantomData<fn(F) -> T>);

impl<T: Send + 'static, F: FnOnce() -> T + Send + 'static> VTableOf<T, F> {
    const TABLE: SlotVTable = SlotVTable {
        run: Self::run,
        drop_closure: Self::drop_closure,
        drop_output: Self::drop_output,
    };

    unsafe fn run(p: *mut u8) -> u8 {
        let f = p.cast::<F>().read();
        match std::panic::catch_unwind(AssertUnwindSafe(f)) {
            Ok(value) => {
                p.cast::<T>().write(value);
                OUTCOME_VALUE
            }
            Err(payload) => {
                p.cast::<Box<dyn Any + Send>>().write(payload);
                OUTCOME_PANICKED
            }
        }
    }

    unsafe fn drop_closure(p: *mut u8) {
        p.cast::<F>().drop_in_place();
    }

    unsafe fn drop_output(p: *mut u8, outcome: u8) {
        match outcome {
            OUTCOME_VALUE => p.cast::<T>().drop_in_place(),
            OUTCOME_PANICKED => p.cast::<Box<dyn Any + Send>>().drop_in_place(),
            _ => {}
        }
    }
}

/// Per-task metadata supplied by the spawner (a slab slot's, or a heap
/// task cell's).
pub(crate) struct SpawnMeta {
    pub task_id: u64,
    /// Causal parent: the task whose body issued this spawn (`u64::MAX`
    /// when spawned from outside any task).
    pub parent: u64,
    /// Interned spawn-site id (see [`crate::trace::site_name`]).
    pub site: u32,
    /// Spawn timestamp; start − spawn is the task's queue wait.
    pub spawned_ns: u64,
    pub token: Option<crate::cancel::CancelToken>,
    /// The spawn passed admission and owes the gate a `note_started`.
    pub holds_gate: bool,
}

/// `SpawnMeta` plus the monomorphized vtable, written by the spawner
/// before the task is published (the queue push is the release edge)
/// and read by the claimant afterwards.
pub(crate) struct SlotMeta {
    vtable: &'static SlotVTable,
    pub spawn: SpawnMeta,
}

#[repr(C, align(16))]
struct PayloadArea(MaybeUninit<[u8; PAYLOAD_BYTES]>);

/// One recyclable task cell. 128-byte aligned so two slots never share
/// a cache-line pair (avoids false sharing between the owner writing
/// one slot and a thief completing its neighbor).
#[repr(align(128))]
pub(crate) struct Slot {
    /// Bumped (Release) every time the slot is freed, *before* the
    /// free-list push. Handles validate with Acquire loads.
    gen: AtomicU64,
    /// Free-list link; `NIL` when allocated or terminal.
    next_free: AtomicUsize,
    /// CLAIMED | RUNNER_DONE | FUTURE_DONE | TAKEN.
    lifecycle: AtomicU8,
    /// OUTCOME_* code; written by the claimant before `ready`.
    outcome: AtomicU8,
    /// Completion flag, mirrors `Shared::ready` (store SeqCst after
    /// the outcome, load SeqCst in `is_ready` — same protocol as the
    /// heap future, see DESIGN.md §10).
    ready: crate::prim::AtomicBool,
    /// Wakes external waiters; workers help-execute instead.
    gate: EventGate,
    meta: UnsafeCell<Option<SlotMeta>>,
    payload: UnsafeCell<PayloadArea>,
}

// SAFETY: access to `meta`/`payload` is handed off through the
// claim/publish protocol documented on the module; every cross-thread
// edge is an acquire/release (or SeqCst) pair on `lifecycle`, `ready`,
// or the free-list heads.
unsafe impl Send for Slot {}
unsafe impl Sync for Slot {}

impl Slot {
    fn new() -> Self {
        Slot {
            gen: AtomicU64::new(0),
            next_free: AtomicUsize::new(NIL),
            lifecycle: AtomicU8::new(0),
            outcome: AtomicU8::new(OUTCOME_PENDING),
            ready: crate::prim::AtomicBool::new(false),
            gate: EventGate::new(),
            meta: UnsafeCell::new(None),
            payload: UnsafeCell::new(PayloadArea(MaybeUninit::uninit())),
        }
    }

    pub(crate) fn generation(&self) -> u64 {
        self.gen.load(Ordering::Acquire)
    }

    pub(crate) fn is_ready(&self) -> bool {
        self.ready.load(Ordering::SeqCst)
    }

    pub(crate) fn outcome(&self) -> u8 {
        self.outcome.load(Ordering::Relaxed)
    }

    pub(crate) fn gate(&self) -> &EventGate {
        &self.gate
    }

    /// Publish completion: outcome, then ready (SeqCst), then wake.
    fn publish(&self, outcome: u8) {
        self.outcome.store(outcome, Ordering::Relaxed);
        self.ready.store(true, Ordering::SeqCst);
        self.gate.notify();
    }

    fn payload_ptr(&self) -> *mut u8 {
        self.payload.get().cast::<u8>()
    }
}

/// A worker's slot arena. The owner allocates; anyone may free.
pub(crate) struct Slab {
    slots: Box<[Slot]>,
    /// Owner-private free list head (plain loads/stores suffice, but it
    /// lives in an atomic so the model checker can see it).
    local_head: AtomicUsize,
    /// Treiber stack of slots freed by other threads.
    remote_head: AtomicUsize,
    owner: usize,
    /// Back-reference for queue-teardown bookkeeping; set once by
    /// `Runtime::new` after the inner Arc exists.
    runtime: OnceLock<Weak<RuntimeInner>>,
    allocs: AtomicU64,
    local_frees: AtomicU64,
    remote_frees: AtomicU64,
    exhausted: AtomicU64,
}

unsafe impl Send for Slab {}
unsafe impl Sync for Slab {}

impl Slab {
    pub(crate) fn new(owner: usize, capacity: usize) -> Self {
        let slots: Box<[Slot]> = (0..capacity).map(|_| Slot::new()).collect();
        for (i, s) in slots.iter().enumerate() {
            let next = if i + 1 < capacity { i + 1 } else { NIL };
            s.next_free.store(next, Ordering::Relaxed);
        }
        Slab {
            slots,
            local_head: AtomicUsize::new(if capacity == 0 { NIL } else { 0 }),
            remote_head: AtomicUsize::new(NIL),
            owner,
            runtime: OnceLock::new(),
            allocs: AtomicU64::new(0),
            local_frees: AtomicU64::new(0),
            remote_frees: AtomicU64::new(0),
            exhausted: AtomicU64::new(0),
        }
    }

    pub(crate) fn attach_runtime(&self, inner: Weak<RuntimeInner>) {
        let _ = self.runtime.set(inner);
    }

    pub(crate) fn slot(&self, idx: u32) -> &Slot {
        &self.slots[idx as usize]
    }

    pub(crate) fn allocs(&self) -> u64 {
        self.allocs.load(Ordering::Relaxed)
    }

    pub(crate) fn local_frees(&self) -> u64 {
        self.local_frees.load(Ordering::Relaxed)
    }

    pub(crate) fn remote_frees(&self) -> u64 {
        self.remote_frees.load(Ordering::Relaxed)
    }

    pub(crate) fn exhausted(&self) -> u64 {
        self.exhausted.load(Ordering::Relaxed)
    }

    /// Take a free slot. Owner thread only.
    pub(crate) fn alloc(&self) -> Option<u32> {
        let mut head = self.local_head.load(Ordering::Relaxed);
        if head == NIL {
            // Drain everything thieves returned in one swap; the chain
            // becomes the new local list. Acquire pairs with the
            // freers' Release CAS so their `next_free` stores and
            // generation bumps are visible.
            head = self.remote_head.swap(NIL, Ordering::Acquire);
            if head == NIL {
                // Owner-only counter: load+store avoids a locked RMW on
                // the spawn hot path (readers are cross-thread, writers
                // are only this thread).
                self.exhausted.store(
                    self.exhausted.load(Ordering::Relaxed) + 1,
                    Ordering::Relaxed,
                );
                return None;
            }
        }
        let next = self.slots[head].next_free.load(Ordering::Relaxed);
        self.local_head.store(next, Ordering::Relaxed);
        self.slots[head].next_free.store(NIL, Ordering::Relaxed);
        // Owner-only counter, as above.
        self.allocs
            .store(self.allocs.load(Ordering::Relaxed) + 1, Ordering::Relaxed);
        Some(head as u32)
    }

    /// Return a slot to a free list. The generation bump must be
    /// sequenced *before* the list push so no other thread can observe
    /// a recycled slot still carrying the old generation.
    pub(crate) fn free_slot(&self, idx: u32, by_owner: bool) {
        let slot = &self.slots[idx as usize];
        let bump_first = !mutation_armed("slab-gen-bump-after-push");
        if bump_first {
            slot.gen.fetch_add(1, Ordering::Release);
        }
        if by_owner {
            let head = self.local_head.load(Ordering::Relaxed);
            slot.next_free.store(head, Ordering::Relaxed);
            self.local_head.store(idx as usize, Ordering::Relaxed);
            // Owner-only counter (`by_owner` means this is the owner
            // thread): load+store, no locked RMW.
            self.local_frees.store(
                self.local_frees.load(Ordering::Relaxed) + 1,
                Ordering::Relaxed,
            );
        } else {
            let push_order = if mutation_armed("slab-remote-push-relaxed") {
                Ordering::Relaxed
            } else {
                Ordering::Release
            };
            let mut head = self.remote_head.load(Ordering::Relaxed);
            loop {
                slot.next_free.store(head, Ordering::Relaxed);
                match self.remote_head.compare_exchange_weak(
                    head,
                    idx as usize,
                    push_order,
                    Ordering::Relaxed,
                ) {
                    Ok(_) => break,
                    Err(actual) => head = actual,
                }
            }
            self.remote_frees.fetch_add(1, Ordering::Relaxed);
        }
        if !bump_first {
            slot.gen.fetch_add(1, Ordering::Release);
        }
    }

    /// Initialize a freshly allocated slot with a task. Returns the
    /// slot's current generation for the handle pair.
    ///
    /// # Safety
    /// `idx` must have just been returned by `alloc` on this thread and
    /// not yet published.
    pub(crate) unsafe fn init_task<T, F>(&self, idx: u32, spawn: SpawnMeta, f: F) -> u64
    where
        T: Send + 'static,
        F: FnOnce() -> T + Send + 'static,
    {
        debug_assert!(task_fits::<T, F>());
        let slot = &self.slots[idx as usize];
        slot.lifecycle.store(0, Ordering::Relaxed);
        slot.outcome.store(OUTCOME_PENDING, Ordering::Relaxed);
        slot.ready.store(false, Ordering::Relaxed);
        *slot.meta.get() = Some(SlotMeta {
            vtable: &VTableOf::<T, F>::TABLE,
            spawn,
        });
        slot.payload_ptr().cast::<F>().write(f);
        slot.gen.load(Ordering::Relaxed)
    }

    /// Try to become the slot's claimant (exactly-once).
    pub(crate) fn claim(&self, idx: u32) -> bool {
        let prev = self.slots[idx as usize]
            .lifecycle
            .fetch_or(CLAIMED, Ordering::AcqRel);
        prev & CLAIMED == 0
    }

    /// Read the claimed slot's metadata.
    ///
    /// # Safety
    /// The caller must have won `claim(idx)` and not yet called
    /// `runner_done`.
    pub(crate) unsafe fn meta(&self, idx: u32) -> &SlotMeta {
        (*self.slots[idx as usize].meta.get())
            .as_ref()
            .expect("claimed slot has metadata")
    }

    /// Run the closure in place and publish the outcome.
    ///
    /// # Safety
    /// Claimant only; the closure must not have been consumed yet.
    pub(crate) unsafe fn run_claimed(&self, idx: u32) -> u8 {
        let slot = &self.slots[idx as usize];
        let vtable = self.meta(idx).vtable;
        (vtable.run)(slot.payload_ptr())
    }

    /// Drop the un-run closure and publish a cancelled outcome.
    ///
    /// # Safety
    /// Claimant only; the closure must not have been consumed yet.
    pub(crate) unsafe fn cancel_claimed(&self, idx: u32) {
        let slot = &self.slots[idx as usize];
        let vtable = self.meta(idx).vtable;
        (vtable.drop_closure)(slot.payload_ptr());
        slot.publish(OUTCOME_CANCELLED);
    }

    pub(crate) fn publish(&self, idx: u32, outcome: u8) {
        self.slots[idx as usize].publish(outcome);
    }

    /// Runner-side release. Cleans up and frees if the future side has
    /// already detached.
    pub(crate) fn runner_done(&self, idx: u32) {
        let prev = self.slots[idx as usize]
            .lifecycle
            .fetch_or(RUNNER_DONE, Ordering::AcqRel);
        if prev & FUTURE_DONE != 0 {
            self.cleanup(idx, prev | RUNNER_DONE);
        }
    }

    /// Future-side release (`taken` = the output was consumed). Cleans
    /// up and frees if the runner has already finished.
    pub(crate) fn future_done(&self, idx: u32, taken: bool) {
        let bits = FUTURE_DONE | if taken { TAKEN } else { 0 };
        let prev = self.slots[idx as usize]
            .lifecycle
            .fetch_or(bits, Ordering::AcqRel);
        if prev & RUNNER_DONE != 0 {
            self.cleanup(idx, prev | bits);
        }
    }

    /// Exactly-once teardown after both sides released: drop whatever
    /// is left in the payload, drop the metadata, recycle the slot.
    fn cleanup(&self, idx: u32, bits: u8) {
        let slot = &self.slots[idx as usize];
        // SAFETY: both RUNNER_DONE and FUTURE_DONE are set and the
        // lifecycle RMW total order picked us as the second releaser —
        // no other thread touches the slot until it is freed.
        unsafe {
            let meta = (*slot.meta.get()).take().expect("slot torn down once");
            let outcome = slot.outcome.load(Ordering::Relaxed);
            if bits & TAKEN == 0 && matches!(outcome, OUTCOME_VALUE | OUTCOME_PANICKED) {
                (meta.vtable.drop_output)(slot.payload_ptr(), outcome);
            }
            drop(meta);
        }
        let by_owner = std::ptr::eq(crate::worker::current_slab_ptr(), self);
        self.free_slot(idx, by_owner);
    }

    /// Queue-teardown path: the task was dropped without running
    /// (runtime shutdown, deque drop, quiesce straggler). Completes the
    /// future as cancelled so joiners unblock.
    pub(crate) fn teardown_queued(&self, idx: u32) {
        if !self.claim(idx) {
            return;
        }
        // SAFETY: we won the claim, so we own closure + metadata.
        unsafe {
            let meta = self.meta(idx);
            if let Some(inner) = self.runtime.get().and_then(Weak::upgrade) {
                if meta.spawn.holds_gate {
                    if let Some(gate) = &inner.gate {
                        gate.note_started();
                    }
                }
                let widx = if inner.state.stats.is_empty() {
                    None
                } else {
                    Some(self.owner.min(inner.state.stats.len() - 1))
                };
                if let Some(w) = widx {
                    inner.state.stats[w]
                        .cancelled
                        .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                }
                self.cancel_claimed(idx);
                inner.state.note_task_finished();
            } else {
                self.cancel_claimed(idx);
            }
        }
        self.runner_done(idx);
    }
}

/// The scheduler-side handle: identifies one queued task instance.
/// Dropping it without running the task tears the task down (cancelled
/// completion), exactly like dropping a heap `Task` drops its
/// `Arc<TaskCell>`.
pub(crate) struct SlabSlotRef {
    pub slab: *const Slab,
    pub idx: u32,
    pub gen: u64,
}

// SAFETY: the referenced `Slab` lives in `RuntimeInner` *after* the
// scheduler field, so every queue (and thus every `SlabSlotRef`) drops
// before the slab does; the slab itself is `Sync`.
unsafe impl Send for SlabSlotRef {}
unsafe impl Sync for SlabSlotRef {}

impl SlabSlotRef {
    pub(crate) fn slab(&self) -> &Slab {
        // SAFETY: see the Send/Sync argument above.
        unsafe { &*self.slab }
    }
}

impl Drop for SlabSlotRef {
    fn drop(&mut self) {
        debug_assert_eq!(self.slab().slot(self.idx).generation(), self.gen);
        self.slab().teardown_queued(self.idx);
    }
}

/// The future-side handle held by `TaskFuture`. Typed: it knows the
/// output is a `T` and reads it straight out of the payload.
pub(crate) struct SlabJoin<T> {
    slab: std::sync::Arc<Slab>,
    idx: u32,
    gen: u64,
    consumed: bool,
    _result: PhantomData<fn() -> T>,
}

// SAFETY: the payload transfer (runner writes `T`, joiner reads it) is
// ordered by the SeqCst `ready` flag, same as `Shared<T>`.
unsafe impl<T: Send> Send for SlabJoin<T> {}
unsafe impl<T: Send> Sync for SlabJoin<T> {}

impl<T: Send + 'static> SlabJoin<T> {
    pub(crate) fn new(slab: std::sync::Arc<Slab>, idx: u32, gen: u64) -> Self {
        SlabJoin {
            slab,
            idx,
            gen,
            consumed: false,
            _result: PhantomData,
        }
    }

    fn slot(&self) -> &Slot {
        let s = self.slab.slot(self.idx);
        debug_assert_eq!(s.generation(), self.gen, "slab handle outlived its slot");
        s
    }

    pub(crate) fn is_ready(&self) -> bool {
        self.slot().is_ready()
    }

    pub(crate) fn is_cancelled(&self) -> bool {
        self.slot().is_ready() && self.slot().outcome() == OUTCOME_CANCELLED
    }

    /// Block until complete: workers help-execute, external threads
    /// wait on the slot's gate (mirrors `Shared::wait`).
    pub(crate) fn wait(&self) {
        if self.is_ready() {
            return;
        }
        if crate::worker::on_worker_thread() {
            crate::worker::help_while(|| !self.is_ready());
        } else {
            let slot = self.slot();
            slot.gate().wait_until(|| slot.is_ready());
        }
    }

    /// Like `wait` but bounded; returns readiness.
    pub(crate) fn wait_timeout(&self, timeout: std::time::Duration) -> bool {
        if self.is_ready() {
            return true;
        }
        let deadline = std::time::Instant::now() + timeout;
        if crate::worker::on_worker_thread() {
            crate::worker::help_while(|| !self.is_ready() && std::time::Instant::now() < deadline);
        } else {
            let slot = self.slot();
            slot.gate().wait_deadline(deadline, || slot.is_ready());
        }
        self.is_ready()
    }

    /// Consume the completed output. Panics/propagates like
    /// `Shared::take`.
    pub(crate) fn take(&mut self) -> T {
        let (outcome, payload) = {
            let slot = self.slot();
            assert!(slot.is_ready(), "take called before completion");
            (slot.outcome(), slot.payload_ptr())
        };
        match outcome {
            OUTCOME_VALUE => {
                self.consumed = true;
                // SAFETY: the runner wrote a `T` before the SeqCst
                // `ready` store we synchronized with; marking
                // `consumed` makes our Drop set TAKEN so cleanup will
                // not double-drop it.
                unsafe { payload.cast::<T>().read() }
            }
            OUTCOME_PANICKED => {
                self.consumed = true;
                // SAFETY: as above, the payload holds the panic box.
                let boxed = unsafe { payload.cast::<Box<dyn Any + Send>>().read() };
                std::panic::resume_unwind(boxed)
            }
            OUTCOME_CANCELLED => std::panic::resume_unwind(Box::new(crate::cancel::TaskCancelled)),
            other => unreachable!("ready slot with outcome {other}"),
        }
    }
}

impl<T> Drop for SlabJoin<T> {
    fn drop(&mut self) {
        self.slab.future_done(self.idx, self.consumed);
    }
}

#[cfg(all(test, not(rpx_model)))]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize as StdAtomicUsize, Ordering as StdOrdering};
    use std::sync::Arc;

    fn meta(task_id: u64) -> SpawnMeta {
        SpawnMeta {
            task_id,
            parent: u64::MAX,
            site: 0,
            spawned_ns: 0,
            token: None,
            holds_gate: false,
        }
    }

    #[test]
    fn fits_gate_respects_size_and_align() {
        assert!(task_fits::<u64, fn() -> u64>());
        assert!(task_fits::<[u8; 128], fn() -> [u8; 128]>());
        assert!(!task_fits::<[u8; 129], fn() -> [u8; 129]>());
        #[repr(align(64))]
        struct Overaligned(#[allow(dead_code)] u8);
        assert!(!task_fits::<Overaligned, fn() -> Overaligned>());
    }

    #[test]
    fn alloc_free_recycles_lifo_and_bumps_generation() {
        let slab = Slab::new(0, 2);
        let a = slab.alloc().unwrap();
        let b = slab.alloc().unwrap();
        assert_eq!((a, b), (0, 1));
        assert!(slab.alloc().is_none());
        assert_eq!(slab.exhausted(), 1);
        let g = slab.slot(a).generation();
        slab.free_slot(a, true);
        assert_eq!(slab.slot(a).generation(), g + 1);
        assert_eq!(slab.alloc(), Some(a));
        assert_eq!(slab.allocs(), 3);
        assert_eq!(slab.local_frees(), 1);
    }

    #[test]
    fn remote_frees_drain_on_owner_alloc() {
        let slab = Arc::new(Slab::new(0, 2));
        let a = slab.alloc().unwrap();
        let b = slab.alloc().unwrap();
        let s2 = Arc::clone(&slab);
        std::thread::spawn(move || {
            s2.free_slot(a, false);
            s2.free_slot(b, false);
        })
        .join()
        .unwrap();
        assert_eq!(slab.remote_frees(), 2);
        // Drain returns the whole chain; both slots come back.
        let first = slab.alloc().unwrap();
        let second = slab.alloc().unwrap();
        let mut got = [first, second];
        got.sort_unstable();
        assert_eq!(got, [a, b]);
        assert!(slab.alloc().is_none());
    }

    #[test]
    fn run_publishes_value_and_join_takes_it() {
        let slab = Arc::new(Slab::new(0, 1));
        let idx = slab.alloc().unwrap();
        let gen = unsafe { slab.init_task::<u64, _>(idx, meta(1), || 41 + 1) };
        assert!(slab.claim(idx));
        let outcome = unsafe { slab.run_claimed(idx) };
        slab.publish(idx, outcome);
        slab.runner_done(idx);
        let mut join = SlabJoin::<u64>::new(Arc::clone(&slab), idx, gen);
        assert!(join.is_ready());
        assert_eq!(join.take(), 42);
        drop(join);
        // Both sides released: the slot recycled.
        assert_eq!(slab.alloc(), Some(idx));
    }

    #[test]
    fn panic_payload_propagates_through_join() {
        let slab = Arc::new(Slab::new(0, 1));
        let idx = slab.alloc().unwrap();
        let gen = unsafe { slab.init_task::<(), _>(idx, meta(2), || panic!("slab boom")) };
        assert!(slab.claim(idx));
        let outcome = unsafe { slab.run_claimed(idx) };
        assert_eq!(outcome, OUTCOME_PANICKED);
        slab.publish(idx, outcome);
        slab.runner_done(idx);
        let mut join = SlabJoin::<()>::new(Arc::clone(&slab), idx, gen);
        let err = std::panic::catch_unwind(AssertUnwindSafe(|| join.take())).unwrap_err();
        assert_eq!(err.downcast_ref::<&str>(), Some(&"slab boom"));
    }

    #[test]
    fn untaken_output_is_dropped_exactly_once() {
        static DROPS: StdAtomicUsize = StdAtomicUsize::new(0);
        struct Probe;
        impl Drop for Probe {
            fn drop(&mut self) {
                DROPS.fetch_add(1, StdOrdering::SeqCst);
            }
        }
        let slab = Arc::new(Slab::new(0, 1));
        let idx = slab.alloc().unwrap();
        let gen = unsafe { slab.init_task::<Probe, _>(idx, meta(3), || Probe) };
        assert!(slab.claim(idx));
        let outcome = unsafe { slab.run_claimed(idx) };
        slab.publish(idx, outcome);
        slab.runner_done(idx);
        let join = SlabJoin::<Probe>::new(Arc::clone(&slab), idx, gen);
        drop(join); // never taken
        assert_eq!(DROPS.load(StdOrdering::SeqCst), 1);
        assert_eq!(slab.alloc(), Some(idx));
    }

    #[test]
    fn teardown_queued_cancels_and_drops_closure() {
        static DROPS: StdAtomicUsize = StdAtomicUsize::new(0);
        struct Held;
        impl Drop for Held {
            fn drop(&mut self) {
                DROPS.fetch_add(1, StdOrdering::SeqCst);
            }
        }
        let slab = Arc::new(Slab::new(0, 1));
        let idx = slab.alloc().unwrap();
        let held = Held;
        let gen = unsafe { slab.init_task::<(), _>(idx, meta(4), move || drop(held)) };
        let join = SlabJoin::<()>::new(Arc::clone(&slab), idx, gen);
        slab.teardown_queued(idx);
        assert_eq!(DROPS.load(StdOrdering::SeqCst), 1, "closure dropped un-run");
        assert!(join.is_cancelled());
        drop(join);
        assert_eq!(slab.alloc(), Some(idx));
    }

    #[test]
    fn second_teardown_claim_is_a_noop() {
        let slab = Arc::new(Slab::new(0, 1));
        let idx = slab.alloc().unwrap();
        let gen = unsafe { slab.init_task::<u64, _>(idx, meta(5), || 7) };
        assert!(slab.claim(idx));
        let outcome = unsafe { slab.run_claimed(idx) };
        slab.publish(idx, outcome);
        // Late queue-teardown (e.g. a dropped duplicate ref) loses the
        // claim and must not disturb the published value.
        slab.teardown_queued(idx);
        slab.runner_done(idx);
        let mut join = SlabJoin::<u64>::new(Arc::clone(&slab), idx, gen);
        assert_eq!(join.take(), 7);
    }
}
