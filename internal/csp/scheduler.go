// Package csp implements Causal Synchronous Parallel scheduling — the
// paper's core contribution (§3, Algorithms 1–3).
//
// CSP (Definition 2) requires dependency preservation: if subnets x < y
// select the same candidate layer l, then y's accesses to l must wait for
// x's WRITE (backward + optimizer step) on l to finish. Each pipeline
// stage runs its own Scheduler instance, resolving dependencies locally
// and in a decentralized way — no external synchronization server.
//
// The scheduling policy (§3.2): backward tasks always run first (they
// retire dependencies and widen the schedulable set); forward tasks are
// chosen by SCHEDULE (Algorithm 2), which scans the queue in sequence-ID
// order and returns the first task whose stage-local layers do not collide
// with any unfinished earlier subnet. A finished-list elimination scheme
// bounds the scan: once every subnet below a sequence ID has finished,
// those subnets drop out of both the finished list and the dependency
// check.
package csp

import (
	"fmt"
	"slices"
	"sort"

	"naspipe/internal/supernet"
)

// SubnetInfo is what a stage's scheduler knows about one subnet: its
// sequence ID, the full set of candidate layers it activates (used when
// the subnet appears as the *earlier* side of a dependency check — with
// mirroring, a layer may sit on a different stage of the earlier subnet),
// and the layers assigned to this stage (used when the subnet is the
// *candidate* being scheduled).
type SubnetInfo struct {
	Seq         int
	AllLayers   []supernet.LayerID // every chosen layer, any stage
	StageLayers []supernet.LayerID // chosen layers on this scheduler's stage
}

// Scheduler is the per-stage CSP scheduler state: L_SN (known subnets) and
// L_f (finished subnets) of Algorithm 1, plus a per-layer reverse index
// that accelerates Algorithm 2's membership test.
type Scheduler struct {
	stage    int
	subnets  map[int]*SubnetInfo
	finished map[int]bool
	// frontier: every subnet with Seq < frontier is finished and has been
	// eliminated from the dependency check (the paper's elimination
	// scheme keeping |L_f| ~ |L_q|).
	frontier int
	// users is indexed by LayerID: the *active* subnets that select the
	// layer (registered, not yet eliminated, WRITE not yet marked), as
	// ascending sequence IDs. Algorithm 2 only asks whether an *earlier*
	// subnet holds a layer, so a scan stops at the first entry >= the
	// candidate instead of visiting every later user.
	users [][]int

	// Scheduling-pressure counters (see Stats). A Scheduler is owned by a
	// single stage — one simulator loop or one stage goroutine — so plain
	// ints suffice; cross-stage communication happens via MarkWritten/
	// MarkFinished calls delivered to the owner, never via shared access.
	scheduleCalls int
	emptyScans    int
}

// New returns an empty scheduler for the given stage.
func New(stage int) *Scheduler {
	return &Scheduler{
		stage:    stage,
		subnets:  make(map[int]*SubnetInfo),
		finished: make(map[int]bool),
	}
}

// Stage returns the stage this scheduler serves.
func (s *Scheduler) Stage() int { return s.stage }

// Frontier returns the lowest sequence ID still participating in
// dependency checks. All subnets below it are finished and eliminated.
func (s *Scheduler) Frontier() int { return s.frontier }

// Active returns the number of registered, non-eliminated subnets.
func (s *Scheduler) Active() int { return len(s.subnets) }

// AddSubnet registers a subnet retrieved from the exploration frontend
// (Algorithm 1 line 14). Subnets normally arrive in sequence order, as
// the producer-consumer retrieve() contract hands them out; one that
// arrives out of order is inserted in place, so the per-layer index
// stays ascending either way.
func (s *Scheduler) AddSubnet(info SubnetInfo) error {
	if info.Seq < s.frontier {
		return fmt.Errorf("csp: subnet %d below frontier %d", info.Seq, s.frontier)
	}
	if _, dup := s.subnets[info.Seq]; dup {
		return fmt.Errorf("csp: subnet %d already registered", info.Seq)
	}
	for _, ids := range [][]supernet.LayerID{info.AllLayers, info.StageLayers} {
		for _, l := range ids {
			if l < 0 {
				return fmt.Errorf("csp: subnet %d selects negative layer %d", info.Seq, l)
			}
		}
	}
	cp := &SubnetInfo{
		Seq:         info.Seq,
		AllLayers:   append([]supernet.LayerID(nil), info.AllLayers...),
		StageLayers: append([]supernet.LayerID(nil), info.StageLayers...),
	}
	s.subnets[info.Seq] = cp
	for _, l := range cp.AllLayers {
		if int(l) >= len(s.users) {
			s.users = append(s.users, make([][]int, int(l)+1-len(s.users))...)
		}
		us := s.users[l]
		if n := len(us); n == 0 || us[n-1] < info.Seq {
			s.users[l] = append(us, info.Seq)
			continue
		}
		if i := sort.SearchInts(us, info.Seq); us[i] != info.Seq {
			s.users[l] = slices.Insert(us, i, info.Seq)
		}
	}
	return nil
}

// unuse drops seq from layer l's users, if it is there.
func (s *Scheduler) unuse(l supernet.LayerID, seq int) {
	if l < 0 || int(l) >= len(s.users) {
		return
	}
	us := s.users[l]
	if len(us) > 0 && us[0] == seq {
		// The common case: the layer's oldest user retires first.
		s.users[l] = us[1:]
		return
	}
	if i := sort.SearchInts(us, seq); i < len(us) && us[i] == seq {
		s.users[l] = slices.Delete(us, i, i+1)
	}
}

// MarkFinished records that the subnet's backward pass (its WRITE) has
// completed and flushed on this stage, then advances the elimination
// frontier (Algorithm 1 line 10 plus the §3.2 elimination scheme).
func (s *Scheduler) MarkFinished(seq int) {
	if seq < s.frontier || s.finished[seq] {
		return
	}
	s.finished[seq] = true
	for s.finished[s.frontier] {
		s.eliminate(s.frontier)
		s.frontier++
	}
}

// MarkWritten records that subnet seq's WRITE to the given layers has
// completed (the backward pass of the stage owning them finished, and —
// for mirrored layers — the update has been pushed, §4.2). Blocked stops
// considering those (layer, subnet) pairs immediately, which unblocks
// dependents at per-layer granularity: tighter than whole-subnet
// completion when two subnets' balanced partitions place a shared layer
// on different stages.
func (s *Scheduler) MarkWritten(seq int, ids []supernet.LayerID) {
	for _, l := range ids {
		s.unuse(l, seq)
	}
}

// eliminate drops a finished subnet from all indexes.
func (s *Scheduler) eliminate(seq int) {
	delete(s.finished, seq)
	info := s.subnets[seq]
	if info != nil {
		for _, l := range info.AllLayers {
			s.unuse(l, seq)
		}
	}
	delete(s.subnets, seq)
}

// Finished reports whether the subnet's WRITE has completed (or has been
// eliminated as finished).
func (s *Scheduler) Finished(seq int) bool {
	return seq < s.frontier || s.finished[seq]
}

// Blocked reports whether scheduling subnet seq's forward on this stage
// would violate CSP: some layer of its stage partition is selected by an
// unfinished earlier subnet. This is Algorithm 2's inner check (lines
// 4–10) with the per-layer index replacing the linear scan.
func (s *Scheduler) Blocked(seq int) bool {
	return s.blockedAssuming(seq, nil)
}

// BlockingWriter returns the smallest unfinished earlier subnet that
// blocks seq, or -1 if seq is unblocked. Used by the predictor to chain
// pending backward releases.
func (s *Scheduler) BlockingWriter(seq int) int {
	info := s.subnets[seq]
	if info == nil {
		return -1
	}
	min := -1
	for _, l := range info.StageLayers {
		if w := s.earliestWriter(l, seq, nil); w >= 0 && (min == -1 || w < min) {
			min = w
		}
	}
	return min
}

// earliestWriter returns the smallest subnet below seq that still
// holds layer l — its WRITE is pending and it has not finished — and
// is not in assume; -1 if there is none. users[l] is ascending, so the
// first such entry is the smallest and the scan ends at seq.
func (s *Scheduler) earliestWriter(l supernet.LayerID, seq int, assume []int) int {
	if int(l) >= len(s.users) {
		return -1
	}
users:
	for _, w := range s.users[l] {
		if w >= seq {
			break
		}
		if s.Finished(w) {
			continue
		}
		for _, f := range assume {
			if f == w {
				continue users
			}
		}
		return w
	}
	return -1
}

// Schedule is Algorithm 2: scan the queue in order and return the
// position and sequence ID of the first forward task that satisfies CSP,
// or (-1, -1) if every queued task is blocked. The queue is the stage's
// L_q; entries are subnet sequence IDs whose forward input has arrived.
func (s *Scheduler) Schedule(queue []int) (qidx, qval int) {
	s.scheduleCalls++
	for i, seq := range queue {
		if !s.Blocked(seq) {
			return i, seq
		}
	}
	if len(queue) > 0 {
		s.emptyScans++
	}
	return -1, -1
}

// Stats reports scheduling-pressure counters: how many Schedule scans ran
// and how many scanned a non-empty queue without finding an admissible
// forward (every candidate blocked by an unfinished earlier subnet).
func (s *Scheduler) Stats() (scheduleCalls, emptyScans int) {
	return s.scheduleCalls, s.emptyScans
}

// ResetStats zeroes the scheduling-pressure counters and returns the
// values they held. Callers that reuse a scheduler across run incarnations
// must call this (or snapshot-delta around Stats) at each incarnation
// boundary, so contention tables report per-incarnation pressure rather
// than a total inflated by earlier lives.
func (s *Scheduler) ResetStats() (scheduleCalls, emptyScans int) {
	scheduleCalls, emptyScans = s.scheduleCalls, s.emptyScans
	s.scheduleCalls, s.emptyScans = 0, 0
	return scheduleCalls, emptyScans
}

// ScheduleAssuming runs Schedule as if the given extra subnets were
// already finished. The predictor uses it to look one backward completion
// ahead (Algorithm 3 lines 4–9). It sits on the predictor's per-task
// admission path, so the assumption set is scanned as a slice — the
// lookahead is one or two entries — and the call performs no allocation.
func (s *Scheduler) ScheduleAssuming(queue []int, finished ...int) (qidx, qval int) {
	for i, seq := range queue {
		if !s.blockedAssuming(seq, finished) {
			return i, seq
		}
	}
	return -1, -1
}

// blockedAssuming is Blocked with the subnets in assume treated as
// finished; an unknown subnet is conservatively blocked, because the
// caller has not registered it yet and its dependencies cannot be
// checked.
func (s *Scheduler) blockedAssuming(seq int, assume []int) bool {
	info := s.subnets[seq]
	if info == nil {
		return true
	}
	for _, l := range info.StageLayers {
		if s.earliestWriter(l, seq, assume) >= 0 {
			return true
		}
	}
	return false
}

// ReferenceSchedule is the paper-literal Algorithm 2, kept as an oracle
// for differential testing against the indexed implementation: nested
// loops over the queue, all earlier subnets, and all layer choices, with
// no reverse index and no elimination shortcuts beyond the frontier.
func ReferenceSchedule(queue []int, finished map[int]bool, frontier int,
	subnets map[int]*SubnetInfo) (qidx, qval int) {
	for i, seq := range queue {
		scheduled := true
		cand := subnets[seq]
		if cand == nil {
			continue
		}
	earlier:
		for wval := frontier; wval < seq; wval++ {
			if finished[wval] {
				continue
			}
			w := subnets[wval]
			if w == nil {
				continue
			}
			for _, l := range cand.StageLayers {
				for _, wl := range w.AllLayers {
					if l == wl {
						scheduled = false
						break earlier
					}
				}
			}
		}
		if scheduled {
			return i, seq
		}
	}
	return -1, -1
}

// Snapshot exposes internal state for the reference oracle and for
// debugging: a copy of the finished set and registered subnets.
func (s *Scheduler) Snapshot() (finished map[int]bool, frontier int, subnets map[int]*SubnetInfo) {
	f := make(map[int]bool, len(s.finished))
	for k, v := range s.finished {
		f[k] = v
	}
	subs := make(map[int]*SubnetInfo, len(s.subnets))
	for k, v := range s.subnets {
		subs[k] = v
	}
	return f, s.frontier, subs
}

// FinishedSeqs returns the sequence IDs at or above the frontier whose
// backward has completed out of order, ascending — the frontier-gap set
// a consistency cut records alongside the cursor. Seqs below the
// frontier are already folded into it and are not reported.
func (s *Scheduler) FinishedSeqs() []int {
	out := make([]int, 0, len(s.finished))
	for seq := range s.finished {
		out = append(out, seq)
	}
	sort.Ints(out)
	return out
}

// ActiveSeqs returns the registered, non-eliminated sequence IDs in
// ascending order (diagnostics).
func (s *Scheduler) ActiveSeqs() []int {
	out := make([]int, 0, len(s.subnets))
	for seq := range s.subnets {
		out = append(out, seq)
	}
	sort.Ints(out)
	return out
}
