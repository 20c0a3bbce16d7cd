package engine_test

import (
	"errors"
	"reflect"
	"sort"
	"testing"

	"naspipe/internal/engine"
	"naspipe/internal/supernet"
	"naspipe/internal/trace"
)

// causalDAG builds the merge's DAG over evs explicitly: every subnet
// chain and every layer chain, as all-pairs edges between consecutive
// groups, plus — when part is non-nil — each part's local order (part[i]
// is evs[i]'s part, and evs lists each part's events in local order).
func causalDAG(depth, base int, evs []trace.Event, part []int) (succ [][]int, indeg []int) {
	succ = make([][]int, len(evs))
	indeg = make([]int, len(evs))
	edge := func(a, b int) {
		succ[a] = append(succ[a], b)
		indeg[b]++
	}
	// chain links consecutive groups of each chain; groups maps a chain
	// to its groups, keyed so ascending key is chain order.
	chain := func(groups map[int]map[int][]int) {
		for _, gs := range groups {
			keys := make([]int, 0, len(gs))
			for k := range gs {
				keys = append(keys, k)
			}
			sort.Ints(keys)
			for i := 1; i < len(keys); i++ {
				for _, a := range gs[keys[i-1]] {
					for _, b := range gs[keys[i]] {
						edge(a, b)
					}
				}
			}
		}
	}
	subnet := map[int]map[int][]int{}
	layer := map[int]map[int][]int{}
	for i, ev := range evs {
		q := ev.Subnet - base
		slot := ev.Stage
		if ev.Kind == trace.Write {
			slot = 2*depth - 1 - ev.Stage
		}
		if subnet[q] == nil {
			subnet[q] = map[int][]int{}
		}
		subnet[q][slot] = append(subnet[q][slot], i)
		l := int(ev.Layer)
		if layer[l] == nil {
			layer[l] = map[int][]int{}
		}
		layer[l][2*q+int(ev.Kind)] = append(layer[l][2*q+int(ev.Kind)], i)
	}
	chain(subnet)
	chain(layer)
	for i := 1; i < len(evs) && part != nil; i++ {
		if part[i] == part[i-1] {
			edge(i-1, i)
		}
	}
	return succ, indeg
}

// kahn places nodes in a topological order, choose picking among the
// ready ones; it stops early when nothing is ready.
func kahn(succ [][]int, indeg []int, choose func(ready []int) int) []int {
	indeg = append([]int(nil), indeg...)
	var ready, order []int
	for i, d := range indeg {
		if d == 0 {
			ready = append(ready, i)
		}
	}
	for len(ready) > 0 {
		k := choose(ready)
		n := ready[k]
		ready = append(ready[:k], ready[k+1:]...)
		order = append(order, n)
		for _, m := range succ[n] {
			if indeg[m]--; indeg[m] == 0 {
				ready = append(ready, m)
			}
		}
	}
	return order
}

// bruteMerge is the reference for engine.MergeTraces: Kahn's algorithm
// over the explicit DAG, placing the ready access of smallest canonical
// rank (ties to the lower part). ok is false when accesses remain that
// no order can place.
func bruteMerge(depth, base int, parts []*trace.Trace) (out []trace.Event, ok bool) {
	var evs []trace.Event
	var part []int
	for p, tr := range parts {
		for _, ev := range tr.Events {
			evs = append(evs, ev)
			part = append(part, p)
		}
	}
	rank := func(n int) int {
		ev := evs[n]
		slot := ev.Stage
		if ev.Kind == trace.Write {
			slot = 2*depth - 1 - ev.Stage
		}
		return (ev.Subnet-base)*2*depth + slot
	}
	succ, indeg := causalDAG(depth, base, evs, part)
	order := kahn(succ, indeg, func(ready []int) int {
		best := 0
		for i, n := range ready {
			b := ready[best]
			if rank(n) < rank(b) || rank(n) == rank(b) && part[n] < part[b] {
				best = i
			}
		}
		return best
	})
	for i, n := range order {
		ev := evs[n]
		ev.Order = i
		out = append(out, ev)
	}
	return out, len(order) == len(evs)
}

// fuzzParts decodes a fuzz input into a run's per-worker traces: depth,
// subnets, layer choices and per-subnet stage partitions from the first
// bytes, one valid execution order driven by the rest, split across
// workers. Bit 7 of the header byte then swaps two neighbouring events
// of one worker, which may make the parts contradict the DAG; bit 6
// spreads the layer IDs far apart.
func fuzzParts(data []byte) (depth, base int, parts []*trace.Trace) {
	if len(data) < 4 {
		return 0, 0, nil
	}
	depth = 1 + int(data[0])%4
	nSub := 1 + int(data[1])%6
	nLayers := 1 + int(data[2])%6
	workers := 1 + int(data[3])%depth
	base = int(data[0]>>2) % 3
	corrupt := data[0]&0x80 != 0
	spread := supernet.LayerID(1)
	if data[0]&0x40 != 0 {
		spread = 1 << 30
	}
	rest := data[4:]
	b := func(i int) int {
		if len(rest) == 0 {
			return i
		}
		return int(rest[i%len(rest)])
	}
	var evs []trace.Event
	for q := 0; q < nSub; q++ {
		mask := b(q)%(1<<nLayers) | 1<<(q%nLayers)
		for l := 0; l < nLayers; l++ {
			if mask&(1<<l) == 0 {
				continue
			}
			stage := b(q*nLayers+l+nSub) % depth
			for _, k := range []trace.AccessKind{trace.Read, trace.Write} {
				evs = append(evs, trace.Event{Layer: supernet.LayerID(l) * spread, Subnet: q + base, Stage: stage, Kind: k})
			}
		}
	}
	succ, indeg := causalDAG(depth, base, evs, nil)
	step := 0
	order := kahn(succ, indeg, func(ready []int) int {
		step++
		return b(step+7) % len(ready)
	})
	parts = make([]*trace.Trace, workers)
	for p := range parts {
		parts[p] = &trace.Trace{}
	}
	for _, n := range order {
		ev := evs[n]
		tr := parts[ev.Stage%workers]
		tr.Append(0, ev.Layer, ev.Subnet, ev.Stage, ev.Kind)
	}
	if corrupt {
		tr := parts[b(1)%workers]
		if n := len(tr.Events); n >= 2 {
			i := b(2) % (n - 1)
			tr.Events[i], tr.Events[i+1] = tr.Events[i+1], tr.Events[i]
		}
	}
	return depth, base, parts
}

// FuzzMergeTraces pins the dense merge to the brute-force topological
// merge: the same global order when one exists, and a stall error with
// the same placed prefix when the parts contradict the DAG.
func FuzzMergeTraces(f *testing.F) {
	f.Add([]byte{3, 4, 5, 1, 9, 200, 17, 3, 99, 4, 250, 8})
	f.Add([]byte{0x83, 5, 3, 3, 1, 2, 3, 4, 5, 6, 7, 8, 9})
	f.Add([]byte{0x8b, 2, 2, 0, 7, 7, 7, 7})
	f.Add([]byte{1, 1, 1, 0})
	f.Add([]byte{0x43, 4, 5, 1, 9, 200, 17, 3, 99, 4, 250, 8}) // sparse layer IDs
	f.Fuzz(func(t *testing.T, data []byte) {
		depth, base, parts := fuzzParts(data)
		if parts == nil {
			t.Skip()
		}
		want, ok := bruteMerge(depth, base, parts)
		got, err := engine.MergeTraces(depth, base, parts)
		if !ok {
			var stall *engine.MergeStallError
			if !errors.As(err, &stall) {
				t.Fatalf("contradictory parts merged without a stall error (err %v)", err)
			}
			if stall.Merged != len(want) || len(stall.Heads) == 0 {
				t.Fatalf("stall after %d events with %d heads, brute force placed %d", stall.Merged, len(stall.Heads), len(want))
			}
		} else if err != nil {
			t.Fatalf("mergeable parts: %v", err)
		}
		if len(got.Events) != len(want) || len(want) > 0 && !reflect.DeepEqual(got.Events, want) {
			t.Fatalf("merge placed %v\nbrute force %v", got.Events, want)
		}
	})
}

// TestMergeTracesStallNamesHeads: a worker trace that contradicts the
// DAG (here a WRITE before its own READ) fails the merge with an error
// naming each worker's next event and the chain position it waits on.
func TestMergeTracesStallNamesHeads(t *testing.T) {
	worker0 := &trace.Trace{Events: []trace.Event{
		ev(trace.Write, 0, 0, 0), // B(0)@0 before F(0)@0: impossible
		ev(trace.Read, 0, 0, 0),
	}}
	worker1 := &trace.Trace{Events: []trace.Event{
		ev(trace.Read, 1, 0, 1),
		ev(trace.Write, 1, 0, 1),
	}}
	merged, err := engine.MergeTraces(2, 0, []*trace.Trace{worker0, worker1})
	var stall *engine.MergeStallError
	if !errors.As(err, &stall) {
		t.Fatalf("want a *MergeStallError, got %v", err)
	}
	if len(merged.Events) != 0 || stall.Merged != 0 || stall.Total != 4 {
		t.Fatalf("stall placed %d of %d (trace has %d)", stall.Merged, stall.Total, len(merged.Events))
	}
	want := []engine.MergeHead{
		{Part: 0, Event: worker0.Events[0], SubnetAt: "F@0", LayerAt: "0F"},
		{Part: 1, Event: worker1.Events[0], SubnetAt: "F@0", LayerAt: "0F"},
	}
	if !reflect.DeepEqual(stall.Heads, want) {
		t.Fatalf("heads %+v, want %+v", stall.Heads, want)
	}
	const msg = "engine: trace merge stalled after 0 of 4 events; no worker's next event is placeable:" +
		" [part 0 next 0B@0 on layer 0: subnet chain at F@0, layer chain at 0F]" +
		" [part 1 next 0F@1 on layer 1: subnet chain at F@0, layer chain at 0F]"
	if err.Error() != msg {
		t.Fatalf("error %q\nwant  %q", err.Error(), msg)
	}
}

func TestMergeTracesRejectsMalformedEvents(t *testing.T) {
	for _, e := range []trace.Event{
		ev(trace.Read, 0, 2, 0),     // subnet below base 3
		ev(trace.Read, 0, 3, 2),     // stage outside depth 2
		ev(trace.Read, 0, 1<<30, 0), // subnet far beyond what the events cover
	} {
		if _, err := engine.MergeTraces(2, 3, []*trace.Trace{{Events: []trace.Event{e}}}); err == nil {
			t.Errorf("event %+v accepted", e)
		}
	}
}
