// The distributed execution plane's engine half: stage processes.
//
// A DistConfig tells RunConcurrent to execute only a subset of the
// pipeline's stages and to route every cross-stage message — activation
// handoffs, gradient returns, completion-note broadcasts, cross-stage
// prefetch pushes — through a transport.Transport instead of direct
// channel sends. The stage goroutines themselves are unchanged: the
// same scheduler, the same admission rule, the same trace emission.
// What varies is purely the wiring, so a ChanTransport-backed run is
// the single-process executor with one level of indirection, and a
// Link-backed run is the same executor spread across OS processes.
//
// Each local stage gets a pump goroutine that drains its transport
// delivery queue into the stage's arrival channels. The pump is the
// only producer of a dist stage's notes channel (a stage's own
// completions self-apply without a message), so its blocking sends are
// deadlock-free; fwd/bwd arrival buffers are sized for every possible
// delivery exactly as in the single-process plane.
//
// Verification composes: a worker's observed trace covers only its
// local stages, so RunConcurrent checks the local observation against
// the canonical trace filtered to local stages. That projection is
// necessary but not sufficient — stage partitions are per-subnet, so a
// layer's accesses can straddle workers — which is why the coordinator
// (internal/distrib) k-way-merges the workers' traces back into a
// single causally-ordered global observation (MergeTraces) and
// re-verifies the whole run against the sequential reference.
package engine

import (
	"fmt"
	"slices"
	"strings"
	"sync"

	"naspipe/internal/trace"
	"naspipe/internal/transport"
)

// DistConfig places this process in a distributed run.
type DistConfig struct {
	// Transport carries all cross-stage traffic. The engine closes
	// nothing: the caller owns the transport's lifecycle.
	Transport transport.Transport

	// Stages lists the pipeline stages this process executes (distinct,
	// each in [0, D)). Every other stage is assumed to run elsewhere,
	// reachable through Transport.
	Stages []int
}

func (d *DistConfig) validate(depth int) error {
	if d.Transport == nil {
		return fmt.Errorf("engine: DistConfig.Transport is nil")
	}
	if len(d.Stages) == 0 {
		return fmt.Errorf("engine: DistConfig.Stages is empty")
	}
	seen := make(map[int]bool, len(d.Stages))
	for _, k := range d.Stages {
		if k < 0 || k >= depth {
			return fmt.Errorf("engine: DistConfig stage %d outside the %d-stage pipeline", k, depth)
		}
		if seen[k] {
			return fmt.Errorf("engine: DistConfig stage %d listed twice", k)
		}
		seen[k] = true
	}
	return nil
}

// localSet returns a by-stage membership mask.
func (d *DistConfig) localSet(depth int) []bool {
	local := make([]bool, depth)
	for _, k := range d.Stages {
		local[k] = true
	}
	return local
}

// send pushes one message into the distributed fabric. A transport
// refusing traffic (closed during teardown, a dead peer past its
// reconnect budget) poisons the run like a checkpoint-recorder failure:
// every stage goroutine unwinds and the first error is reported.
func (c *ccRun) send(m transport.Msg) {
	if err := c.dist.Transport.Send(m); err != nil {
		c.sendOnce.Do(func() { c.sendErr = fmt.Errorf("engine: transport send (stage %d -> %d): %w", m.From, m.To, err) })
		c.crashed.Store(true)
	}
}

// sendFwd hands an activation to stage k+1; sendBwd returns a gradient
// (with its carried pending-backward records) to stage k-1. Both are
// the dist counterparts of the direct fwdIn/bwdIn channel sends and run
// inside the same fault-plane wrapper (ccRun.transport).
func (c *ccRun) sendFwd(s *ccStage, seq int) {
	c.send(transport.Msg{Type: transport.FrameFwd, From: s.k, To: s.k + 1, Seq: seq})
}

func (c *ccRun) sendBwd(s *ccStage, b ccBwd) {
	c.send(transport.Msg{Type: transport.FrameBwd, From: s.k, To: s.k - 1, Seq: b.seq, Carried: b.carried})
}

// broadcastNote fans a completion note out to every other stage —
// co-local ones included, so the message plane stays uniform: exactly
// one path exists for cross-stage traffic in a dist run.
func (c *ccRun) broadcastNote(s *ccStage, n ccNote) {
	c.send(transport.Msg{
		Type: transport.FrameNote, From: s.k, To: transport.Broadcast,
		Seq: n.seq, IDs: n.ids, Finished: n.finished,
	})
}

// pushFetch forwards a cross-stage context-push (§3.3) to stage k. In
// a dist run the push becomes a Fetch message when the memory plane is
// on; without a cache the receiver would discard it, so it is never
// sent — frame counts stay free of dead traffic.
func (c *ccRun) pushFetch(s *ccStage, k, seq int) {
	if c.dist == nil {
		c.stages[k].requestFetch(seq)
		return
	}
	if c.cfg.ConcurrentMem.Enabled() {
		c.send(transport.Msg{Type: transport.FrameFetch, From: s.k, To: k, Seq: seq})
	}
}

// pumpLoop drains one local stage's transport deliveries into its
// arrival channels, translating wire messages back into the exact
// events a direct channel send would have produced. It runs until
// stopped: the run keeps pumps alive past stage completion so late
// traffic (another worker's tail notes) never backs up the fabric.
func (c *ccRun) pumpLoop(stop <-chan struct{}, s *ccStage) {
	in := c.dist.Transport.Recv(s.k)
	for {
		select {
		case <-stop:
			return
		case m := <-in:
			switch m.Type {
			case transport.FrameFwd:
				s.fwdIn <- m.Seq
			case transport.FrameBwd:
				s.bwdIn <- ccBwd{seq: m.Seq, carried: m.Carried}
			case transport.FrameNote:
				select {
				case s.notes <- ccNote{seq: m.Seq, ids: m.IDs, finished: m.Finished}:
				case <-stop:
					return
				}
			case transport.FrameFetch:
				s.requestFetch(m.Seq)
			}
		}
	}
}

// startPumps spawns one pump per local stage and returns their stop
// function (idempotent).
func (c *ccRun) startPumps() func() {
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for _, s := range c.stages {
		if s == nil {
			continue
		}
		wg.Add(1)
		go func(s *ccStage) {
			defer wg.Done()
			c.pumpLoop(stop, s)
		}(s)
	}
	var once sync.Once
	return func() {
		once.Do(func() { close(stop) })
		wg.Wait()
	}
}

// DistQueueCap sizes a transport's per-stage delivery queue so sends
// never block steady-state: per stage, at most n forwards + n backwards
// (×2 under fault-plane duplication), (D-1)·n notes, and ~2n fetch
// pushes can ever arrive.
func DistQueueCap(d, n int) int { return 2*(d+4)*n + 16 }

// FilterTrace returns the sub-trace of tr on the given stages, in
// order — the canonical reference a dist worker checks its local
// observation against, and the shape the coordinator's merge consumes.
func FilterTrace(tr *trace.Trace, stages []int) *trace.Trace {
	keep := make(map[int]bool, len(stages))
	for _, k := range stages {
		keep[k] = true
	}
	out := &trace.Trace{}
	for _, ev := range tr.Events {
		if keep[ev.Stage] {
			out.Events = append(out.Events, ev)
		}
	}
	return out
}

// MergeTraces reconstructs a valid global emission order from the
// workers' local observed traces: a topological k-way merge over the
// run's causal DAG. The DAG's edges are each worker's local emission
// order, the per-subnet pipeline chain (READs walk the stages
// downstream, then WRITEs walk back upstream), and the per-layer CSP
// order (Definition 1: a layer's accesses happen in subnet order,
// reads before writes within a subnet). The real execution's
// wall-clock order is a linear extension of exactly that DAG — the
// chain is the pipeline's dataflow and the per-layer order is what
// each stage's csp.Scheduler enforces at admission via cross-stage
// MarkWritten notes — so the merge of a real run's traces always
// completes and always satisfies the replay trainer's global-order
// constraint. Rank in the canonical causal order breaks ties
// deterministically (ranks are unique per access, so the result is
// independent of the order parts are passed in).
//
// Rank alone would not be safe: under out-of-order forwarding a stage
// legally runs F(p) before F(q) with p > q while stage D-1 retires
// B(q); picking strictly by rank would then emit subnet q's first WRITE
// while its stage-k READ is still queued behind F(p) — an order the
// replay trainer correctly rejects. Nor is the subnet chain alone
// enough: stage partitions are per-subnet, so the same layer can live
// on stage 0 for subnet p and stage 1 for subnet q — two different
// workers whose local orders say nothing about each other. Only the
// per-layer gate restores that cross-worker edge.
//
// Parts that contradict the DAG — a corrupt or truncated worker trace —
// leave no worker with a placeable next event. MergeTraces then returns
// the prefix it placed and a *MergeStallError naming every blocked
// head. Events outside the run's shape (a subnet below base or beyond
// what the events can cover, a stage outside [0, depth)) are rejected
// up front.
//
// The chains are dense slices: subnets indexed by seq-base, layers by
// trace.DenseLayers.
func MergeTraces(depth, base int, parts []*trace.Trace) (*trace.Trace, error) {
	nq, total := 0, 0
	lists := make([][]trace.Event, len(parts))
	for p, tr := range parts {
		lists[p] = tr.Events
		for i, ev := range tr.Events {
			var bad string
			switch {
			case ev.Subnet < base:
				bad = fmt.Sprintf("subnet %d below base %d", ev.Subnet, base)
			case ev.Stage < 0 || ev.Stage >= depth:
				bad = fmt.Sprintf("stage %d outside depth %d", ev.Stage, depth)
			case ev.Kind != trace.Read && ev.Kind != trace.Write:
				bad = fmt.Sprintf("unknown access kind %d", ev.Kind)
			}
			if bad != "" {
				return nil, fmt.Errorf("engine: trace merge: part %d event %d: %s", p, i, bad)
			}
			nq = max(nq, ev.Subnet-base+1)
			total++
		}
	}
	if nq > total {
		// Every subnet of a run emits accesses, so the sequence range
		// cannot outgrow the events; a stray ID must not size the tables.
		return nil, fmt.Errorf("engine: trace merge: subnets span %d sequence IDs from base %d but the parts hold only %d events", nq, base, total)
	}
	// A subnet's chain has 2*depth slots: READ at stage k is slot k,
	// WRITE at stage k is slot 2*depth-1-k. count holds how many
	// accesses each (subnet, slot) group has; empty groups are skipped.
	slots := 2 * depth
	slot := func(ev trace.Event) int {
		if ev.Kind == trace.Read {
			return ev.Stage
		}
		return slots - 1 - ev.Stage
	}
	count := make([]int, nq*slots)
	layer, nl := trace.DenseLayers(lists...)
	// A layer's chain is its (subnet, kind) groups — key 2*(seq-base)+kind
	// — ascending. For one subnet a layer lives on one stage, so each
	// group comes from one worker and group-internal order is that
	// worker's local order. keys is bucketed by dense layer index:
	// lstart[l] is where layer l's bucket begins.
	lstart := make([]int, nl+1)
	for _, tr := range parts {
		for _, ev := range tr.Events {
			count[(ev.Subnet-base)*slots+slot(ev)]++
			lstart[layer(ev.Layer)+1]++
		}
	}
	for l := 1; l <= nl; l++ {
		lstart[l] += lstart[l-1]
	}
	keys := make([]int, total)
	fill := append([]int(nil), lstart[:nl]...)
	for _, tr := range parts {
		for _, ev := range tr.Events {
			l := layer(ev.Layer)
			keys[fill[l]] = 2*(ev.Subnet-base) + int(ev.Kind)
			fill[l]++
		}
	}
	// Run-length encode each sorted bucket into (key, size) groups.
	// groups holds every layer's chain back to back; lpos[l] is layer
	// l's cursor into it, starting at the layer's first group.
	type lgroup struct{ key, n int }
	groups := make([]lgroup, 0, total)
	lpos := make([]int, nl)
	for l := 0; l < nl; l++ {
		bucket := keys[lstart[l]:lstart[l+1]]
		slices.Sort(bucket)
		lpos[l] = len(groups)
		for i, k := range bucket {
			if i > 0 && k == bucket[i-1] {
				groups[len(groups)-1].n++
				continue
			}
			groups = append(groups, lgroup{k, 1})
		}
	}
	nextSlot := func(q, from int) int {
		for from < slots && count[q*slots+from] == 0 {
			from++
		}
		return from
	}
	spos := make([]int, nq) // each subnet's current chain slot
	for q := range spos {
		spos[q] = nextSlot(q, 0)
	}
	semitted := make([]int, nq) // accesses placed from the current slot
	lemitted := make([]int, nl) // accesses placed from the current group
	idx := make([]int, len(parts))
	out := &trace.Trace{Events: make([]trace.Event, 0, total)}
	for len(out.Events) < total {
		best, bestRank := -1, 0
		for i, tr := range parts {
			if idx[i] >= len(tr.Events) {
				continue
			}
			ev := tr.Events[idx[i]]
			q, sl := ev.Subnet-base, slot(ev)
			if spos[q] != sl || groups[lpos[layer(ev.Layer)]].key != 2*q+int(ev.Kind) {
				continue
			}
			if r := q*slots + sl; best < 0 || r < bestRank {
				best, bestRank = i, r
			}
		}
		if best < 0 {
			stall := &MergeStallError{Merged: len(out.Events), Total: total}
			for i, tr := range parts {
				if idx[i] >= len(tr.Events) {
					continue
				}
				ev := tr.Events[idx[i]]
				q := ev.Subnet - base
				// A pending event's own group is non-empty, so neither
				// chain has run out.
				h := MergeHead{Part: i, Event: ev}
				if sl := spos[q]; sl < depth {
					h.SubnetAt = fmt.Sprintf("F@%d", sl)
				} else {
					h.SubnetAt = fmt.Sprintf("B@%d", slots-1-sl)
				}
				g := groups[lpos[layer(ev.Layer)]]
				h.LayerAt = fmt.Sprintf("%d%v", g.key/2+base, trace.AccessKind(g.key%2))
				stall.Heads = append(stall.Heads, h)
			}
			return out, stall
		}
		ev := parts[best].Events[idx[best]]
		idx[best]++
		ev.Order = len(out.Events)
		out.Events = append(out.Events, ev)
		q, sl := ev.Subnet-base, slot(ev)
		if semitted[q]++; semitted[q] == count[q*slots+sl] {
			semitted[q] = 0
			spos[q] = nextSlot(q, sl+1)
		}
		if l := layer(ev.Layer); lemitted[l]+1 == groups[lpos[l]].n {
			lemitted[l] = 0
			lpos[l]++
		} else {
			lemitted[l]++
		}
	}
	return out, nil
}

// MergeStageTraces is MergeTraces for callers that verify the merged
// trace themselves (a per-layer comparison against the canonical order
// catches a short merge): on a stall it returns the placed prefix and
// drops the error.
func MergeStageTraces(depth, base int, parts []*trace.Trace) *trace.Trace {
	out, _ := MergeTraces(depth, base, parts)
	if out == nil {
		out = &trace.Trace{}
	}
	return out
}

// MergeStallError reports a trace merge in which no worker's next event
// could be placed: the parts contradict the run's causal DAG, so no
// valid global order exists. Merged of Total events were placed first.
type MergeStallError struct {
	Merged, Total int
	Heads         []MergeHead // one per worker with events left
}

// MergeHead is one worker's next unplaced event and where the two chains
// gating it stand. SubnetAt is the (kind, stage) group the event's
// subnet must finish first, e.g. "F@2" or "B@0"; LayerAt is the
// (subnet, kind) group the event's layer must finish first, e.g. "5B".
type MergeHead struct {
	Part              int
	Event             trace.Event
	SubnetAt, LayerAt string
}

func (e *MergeStallError) Error() string {
	var b strings.Builder
	fmt.Fprintf(&b, "engine: trace merge stalled after %d of %d events; no worker's next event is placeable:", e.Merged, e.Total)
	for _, h := range e.Heads {
		fmt.Fprintf(&b, " [part %d next %d%v@%d on layer %d: subnet chain at %s, layer chain at %s]",
			h.Part, h.Event.Subnet, h.Event.Kind, h.Event.Stage, h.Event.Layer, h.SubnetAt, h.LayerAt)
	}
	return b.String()
}
