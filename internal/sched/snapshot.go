// Forkable run positioning: a Snapshot is a compact digest of the
// scheduler-visible model state at a decision point (thread states and
// block sets, object states, variable values, the virtual clock and
// the decision cursor), and Config.FastForward replays a recorded
// decision prefix without strategy round trips, listener fan-out or
// runnable-set scans — the nonpreemptive-speed "delta replay" that
// positions a fresh pooled runner at a branch.
//
// Goroutine stacks cannot be copied, so a Snapshot is not a state
// transplant: restoring a position always re-executes the program's
// operations. What the snapshot buys is (a) the per-decision cost of
// re-execution dropping to the coast-mode floor (no Pick, no pending
// publication, no event fan-out, no runnable scan), and (b) a
// verifiable contract — after the fast-forward the scheduler compares
// its own digest against Config.FFCheck and declares the run
// VerdictDiverged instead of silently exploring from the wrong state
// when the program is nondeterministic.
package sched

import (
	"context"
	"runtime/pprof"

	"mtbench/internal/core"
)

// Snapshot is a position digest for a run: the decision cursor,
// virtual clock and event counter, plus an FNV-1a fold over every
// piece of model state the scheduler owns (thread states, block
// reasons, held locks, wake deadlines, mutex/rwmutex ownership,
// condition queues, int variable values, waitgroup counters, channel
// buffers and send queues, and the object-arena cursors). Two runs of
// a deterministic program that executed the same decision prefix have
// equal Snapshots; refvar values are opaque (any-typed) and fold only
// by count, which is why the digest is a divergence detector rather
// than a full state equality.
//
// Snapshot is a comparable value type: copy it with =, compare it
// with ==.
type Snapshot struct {
	// Steps is the decision cursor: how many scheduling decisions the
	// run had consumed when the snapshot was taken.
	Steps int64
	// NowNs is the virtual clock base (time warps accumulated so far;
	// the running clock is NowNs + Steps*quantum).
	NowNs int64
	// Events is the event sequence counter.
	Events int64
	// Threads is the number of virtual threads spawned so far.
	Threads int
	// Sum is the model-state fold described above.
	Sum uint64
}

// captureSnapshot fills dst with the scheduler's current position
// digest. Only meaningful at a decision point (inside a strategy
// Pick, through Choice.SnapshotTo), when no virtual thread is mid-
// operation.
func (s *scheduler) captureSnapshot(dst *Snapshot) {
	dst.Steps = s.steps
	dst.NowNs = s.nowNs
	dst.Events = s.seq
	dst.Threads = len(s.threads)
	dst.Sum = s.stateSum()
}

// matchSnapshot reports whether the current position digest equals
// want.
func (s *scheduler) matchSnapshot(want *Snapshot) bool {
	var cur Snapshot
	s.captureSnapshot(&cur)
	return cur == *want
}

// stateSum folds the scheduler-visible model state. Map-shaped state
// (rwmutex reader counts, condition eligibility) is folded through an
// order-independent XOR accumulator so map iteration order cannot
// perturb the digest; everything with a deterministic order (threads,
// lock-held lists, condition waiter queues, channel buffers and send
// queues) folds in that order.
func (s *scheduler) stateSum() uint64 {
	h := core.HashOffset
	if s.cur != nil {
		h = core.FoldHash(h, uint64(uint32(s.cur.id))+1)
	}
	for _, th := range s.threads {
		h = core.FoldHash(h, uint64(th.state))
		h = core.FoldHash(h, uint64(th.block.kind))
		h = core.FoldHash(h, uint64(th.block.obj))
		h = core.FoldHash(h, uint64(th.wakeAt))
		h = core.FoldHash(h, uint64(len(th.locksHeld)))
		for _, id := range th.locksHeld {
			h = core.FoldHash(h, uint64(id))
		}
	}
	for i := 0; i < s.nMus; i++ {
		h = core.FoldHash(h, uint64(uint32(s.mus[i].holder)))
	}
	for i := 0; i < s.nRWs; i++ {
		w := s.rws[i]
		h = core.FoldHash(h, uint64(uint32(w.writer)))
		var acc uint64
		for tid, cnt := range w.readers {
			if cnt != 0 {
				acc ^= core.FoldHash(core.FoldHash(core.HashOffset, uint64(uint32(tid))), uint64(cnt))
			}
		}
		h = core.FoldHash(h, acc)
	}
	for i := 0; i < s.nConds; i++ {
		c := s.conds[i]
		h = core.FoldHash(h, uint64(len(c.waiters)))
		for _, th := range c.waiters {
			h = core.FoldHash(h, uint64(uint32(th.id)))
		}
		var acc uint64
		for tid, ok := range c.eligible {
			if ok {
				acc ^= core.FoldHash(core.HashOffset, uint64(uint32(tid)))
			}
		}
		h = core.FoldHash(h, acc)
	}
	for i := 0; i < s.nInts; i++ {
		h = core.FoldHash(h, uint64(s.ints[i].val))
	}
	// refvar values are any-typed and cannot be folded; their count is
	// covered by the arena cursors below.
	for i := 0; i < s.nWGs; i++ {
		h = core.FoldHash(h, uint64(s.wgs[i].count))
	}
	for i := 0; i < s.nChans; i++ {
		c := s.chans[i]
		h = core.FoldHash(h, uint64(len(c.buf)))
		if c.closed {
			h = core.FoldHash(h, 1)
		}
		for j := range c.sendq {
			h = core.FoldHash(h, uint64(uint32(c.sendq[j].tid)))
			if c.sendq[j].taken {
				h = core.FoldHash(h, 1)
			}
		}
	}
	h = core.FoldHash(h, uint64(s.nMus))
	h = core.FoldHash(h, uint64(s.nRWs))
	h = core.FoldHash(h, uint64(s.nConds))
	h = core.FoldHash(h, uint64(s.nInts))
	h = core.FoldHash(h, uint64(s.nRefs))
	h = core.FoldHash(h, uint64(s.nWGs))
	h = core.FoldHash(h, uint64(s.nChans))
	return h
}

// ffStep is the fast-forward decision path: while recorded decisions
// remain, each one is consumed without consulting the strategy —
// matching step's counting, recording, time-warp and step-limit
// behaviour exactly — and control goes straight to the decided
// thread. Listener fan-out stays suppressed (see emit) until the
// first post-fast-forward decision, where the position digest is
// verified. Any mismatch (decided thread not runnable, no sleeper to
// warp to) marks the run diverged instead of panicking: feeding a
// recorded prefix to a nondeterministic program is a program bug, not
// an engine bug.
func (s *scheduler) ffStep() (next *thread, st stepStatus) {
	for {
		if s.failure != nil {
			return nil, stepOver
		}
		pick := s.ffDec[s.ffPos]
		var th *thread
		if pick == IdleID {
			// Mirror step's silent warp: the recorded run advanced the
			// clock without consuming a decision whenever nothing was
			// runnable.
			for len(s.runnable()) == 0 {
				if !s.advanceTime() {
					s.diverged = true
					return nil, stepOver
				}
			}
		} else {
			th = s.threadByID(pick)
			if th == nil {
				s.diverged = true
				return nil, stepOver
			}
			for !s.ffRunnable(th) {
				if !s.advanceTime() {
					s.diverged = true
					return nil, stepOver
				}
			}
		}
		if s.steps >= s.cfg.MaxSteps {
			s.stepLimitHit = true
			return nil, stepOver
		}
		s.ffPos++
		s.steps++
		if s.cfg.RecordSchedule {
			s.schedule = append(s.schedule, pick)
		}
		if pick == IdleID {
			if !s.advanceTime() {
				s.diverged = true
				return nil, stepOver
			}
			if s.ffPos < len(s.ffDec) {
				continue
			}
			return s.step()
		}
		return th, stepGo
	}
}

// ffRunnable is the single-thread runnability check behind ffStep: the
// same guard runnable applies per thread, without building the set.
func (s *scheduler) ffRunnable(th *thread) bool {
	switch th.state {
	case tReady:
		return true
	case tBlocked:
		return th.block.src == nil || th.block.src.blockReady(&th.block)
	case tSleeping:
		return th.wakeAt <= s.now()
	}
	return false
}

// vthreadLabels is the pprof label set every virtual-thread goroutine
// carries, so CPU profiles split program execution (replayed, novel
// and coasted operations all run here) from the driver-side phases
// labelled by the exploration engine. A coroutine's goroutine inherits
// its creator's labels, so serve sets them inside the coroutine — a
// pooled thread created while a driver-phase label is active must not
// keep that label for its whole pooled life.
var vthreadLabels = pprof.WithLabels(context.Background(), pprof.Labels("mtbench", "vthread"))
