package trace

import (
	"sort"
	"testing"

	"naspipe/internal/supernet"
)

// perLayerEqualRef is the string-based per-layer comparison PerLayerEqual
// replaced: one LayerOrder rendering per layer per trace. It is kept as
// the differential oracle for the one-pass grouping.
func perLayerEqualRef(t, o *Trace) bool {
	layers := t.Layers()
	oLayers := o.Layers()
	if len(layers) != len(oLayers) {
		return false
	}
	for i := range layers {
		if layers[i] != oLayers[i] {
			return false
		}
	}
	for _, l := range layers {
		if t.LayerOrder(l) != o.LayerOrder(l) {
			return false
		}
	}
	return true
}

// fuzzTraces decodes a fuzz input into a trace and a second trace built
// from it. The first byte picks the derivation:
//
//	mode 0: a different interleaving with every layer's order kept
//	mode 1: an arbitrary permutation (layer orders may change)
//	mode 2: one event's subnet, kind or layer altered
//	mode 3: one event dropped, or one duplicated
//
// Bit 2 of the first byte spreads layer IDs far apart, which drives
// PerLayerEqual off its dense-offset path onto the map fallback.
func fuzzTraces(data []byte) (a, b *Trace) {
	if len(data) < 2 {
		return nil, nil
	}
	mode, sparse := data[0]%4, data[0]&4 != 0
	rest := data[1:]
	half := (len(rest) + 1) / 2
	evs, shuffle := rest[:half], rest[half:]
	a = &Trace{}
	for _, x := range evs {
		layer := supernet.LayerID(x % 5)
		if sparse {
			layer *= 1 << 20
		}
		a.Append(0, layer, int(x>>3)%4, 0, AccessKind(x>>5&1))
	}
	pick := func(i int) int {
		if len(shuffle) == 0 {
			return 0
		}
		return int(shuffle[i%len(shuffle)])
	}
	b = &Trace{}
	switch mode {
	case 0:
		// Merge the per-layer queues, choosing the next layer by byte.
		queues := map[supernet.LayerID][]Event{}
		var order []supernet.LayerID
		for _, e := range a.Events {
			if queues[e.Layer] == nil {
				order = append(order, e.Layer)
			}
			queues[e.Layer] = append(queues[e.Layer], e)
		}
		for i := 0; len(order) > 0; i++ {
			k := pick(i) % len(order)
			l := order[k]
			e := queues[l][0]
			b.Append(0, e.Layer, e.Subnet, e.Stage, e.Kind)
			if queues[l] = queues[l][1:]; len(queues[l]) == 0 {
				order = append(order[:k], order[k+1:]...)
			}
		}
	case 1:
		perm := append([]Event(nil), a.Events...)
		for i := len(perm) - 1; i > 0; i-- {
			j := pick(i) % (i + 1)
			perm[i], perm[j] = perm[j], perm[i]
		}
		for _, e := range perm {
			b.Append(0, e.Layer, e.Subnet, e.Stage, e.Kind)
		}
	case 2:
		b.Events = append(b.Events, a.Events...)
		if len(b.Events) > 0 {
			e := &b.Events[pick(0)%len(b.Events)]
			switch pick(1) % 3 {
			case 0:
				e.Subnet++
			case 1:
				e.Kind ^= 1
			default:
				e.Layer++
			}
		}
	default:
		b.Events = append(b.Events, a.Events...)
		if len(b.Events) > 0 {
			i := pick(0) % len(b.Events)
			if pick(1)%2 == 0 {
				b.Events = append(b.Events[:i], b.Events[i+1:]...)
			} else {
				b.Events = append(b.Events, b.Events[i])
			}
		}
	}
	return a, b
}

// FuzzPerLayerEqual pins the one-pass PerLayerEqual to its string-based
// twin on both argument orders, including traces that hold the same
// events in a different global order.
func FuzzPerLayerEqual(f *testing.F) {
	f.Add([]byte{0, 0x00, 0x21, 0x09, 0x29, 0x01, 0x02, 0x07})       // reinterleave
	f.Add([]byte{1, 0x00, 0x21, 0x09, 0x29, 0x01, 0x02, 0x07, 0x03}) // permute
	f.Add([]byte{2, 0x00, 0x21, 0x08, 0x28, 0x05, 0x01})             // mutate one
	f.Add([]byte{3, 0x00, 0x21, 0x08, 0x28, 0x05, 0x01})             // drop one
	f.Add([]byte{4, 0x03, 0x23, 0x0b, 0x2b, 0x04, 0x00, 0x01, 0x01}) // sparse IDs
	f.Add([]byte{6, 0x11, 0x31, 0x12})                               // sparse, mutate
	f.Fuzz(func(t *testing.T, data []byte) {
		a, b := fuzzTraces(data)
		if a == nil {
			t.Skip()
		}
		for _, p := range [][2]*Trace{{a, b}, {b, a}, {a, a}} {
			got, want := p[0].PerLayerEqual(p[1]), perLayerEqualRef(p[0], p[1])
			if got != want {
				t.Fatalf("PerLayerEqual = %v, string twin = %v\na=%v\nb=%v", got, want, p[0].Events, p[1].Events)
			}
		}
		if data[0]%4 == 0 && !a.PerLayerEqual(b) {
			t.Fatalf("a reinterleaving that keeps every layer's order compared unequal")
		}
	})
}

func TestPerLayerEqualEmptyAndSparse(t *testing.T) {
	var empty Trace
	if !empty.PerLayerEqual(&Trace{}) {
		t.Fatal("two empty traces must compare equal")
	}
	var a, b Trace
	a.Append(0, 1<<40, 0, 0, Read)
	a.Append(0, -3, 0, 0, Read)
	b.Append(0, -3, 0, 0, Read)
	b.Append(0, 1<<40, 0, 0, Read)
	if !a.PerLayerEqual(&b) || a.PerLayerEqual(&empty) {
		t.Fatal("sparse layer IDs mis-compared")
	}
}

// benchTraces builds a pair of traces the size of the csp-ckpt
// benchmark workload's (768 NLP.c1 subnets: 73,728 events): a
// sequential order and the same events grouped by layer — every layer
// keeps its order, the global interleaving differs.
func benchTraces(b *testing.B) (seq, grouped *Trace) {
	b.Helper()
	seq = &Trace{}
	for _, sub := range supernet.Sample(supernet.NLPc1, 4, 768) {
		ids := sub.LayerIDs(supernet.NLPc1)
		for _, kind := range []AccessKind{Read, Write} {
			for _, l := range ids {
				seq.Append(0, l, sub.Seq, 0, kind)
			}
		}
	}
	grouped = &Trace{Events: append([]Event(nil), seq.Events...)}
	sort.SliceStable(grouped.Events, func(i, j int) bool {
		return grouped.Events[i].Layer < grouped.Events[j].Layer
	})
	if len(seq.Events) != 73728 {
		b.Fatalf("bench trace has %d events, want 73728", len(seq.Events))
	}
	return seq, grouped
}

func BenchmarkPerLayerEqual(b *testing.B) {
	seq, grouped := benchTraces(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !seq.PerLayerEqual(grouped) {
			b.Fatal("per-layer orders differ")
		}
	}
}

func BenchmarkPerLayerEqualRef(b *testing.B) {
	seq, grouped := benchTraces(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !perLayerEqualRef(seq, grouped) {
			b.Fatal("per-layer orders differ")
		}
	}
}
