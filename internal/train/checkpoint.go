package train

import (
	"sync"

	"naspipe/internal/data"
	"naspipe/internal/supernet"
	"naspipe/internal/tensor"
)

// Checkpointer incrementally materializes the sequential-prefix weight
// state of a subnet stream, so checkpoint cuts can carry a weight
// checksum without retraining the prefix from scratch at every save.
// ChecksumAt(cursor) is the checksum a fresh Sequential run over
// subnets[:cursor] would produce; cursors normally arrive monotonically
// (the engine's frontier only advances) and each call then trains only
// the delta and rehashes only the layers that delta touched. A
// regressed cursor falls back to a from-scratch rebuild.
type Checkpointer struct {
	mu   sync.Mutex
	cfg  Config
	subs []supernet.Subnet
	net  *supernet.Numeric
	src  *data.Source
	ar   *arena
	done int // subnets [0, done) are applied to net

	// sums caches each layer's checksum; dirty marks the layers whose
	// sum is stale (all of them after a rebuild, then the ones SGD
	// touched). Numeric.Checksum is CombineChecksums over exactly these
	// sums, in layer-ID order.
	sums  []uint64
	dirty []bool
}

// NewCheckpointer builds a checkpointer over the full subnet stream.
func NewCheckpointer(cfg Config, subs []supernet.Subnet) *Checkpointer {
	cfg = cfg.withDefaults()
	c := &Checkpointer{
		cfg:  cfg,
		subs: subs,
		src:  data.NewSource(cfg.Dataset, cfg.Dim, cfg.BatchSize, cfg.Seed),
		ar:   newArena(cfg.Dim),
	}
	c.rebuild()
	return c
}

// rebuild resets net to the initial supernet, with every layer's sum
// stale; callers hold c.mu or own c.
func (c *Checkpointer) rebuild() {
	c.net = supernet.BuildNumeric(c.cfg.Space, c.cfg.Dim, c.cfg.Seed)
	c.done = 0
	c.sums = make([]uint64, len(c.net.Layer))
	c.dirty = make([]bool, len(c.net.Layer))
	for id := range c.dirty {
		c.dirty[id] = true
	}
}

// ChecksumAt returns the sequential weight checksum after the first
// cursor subnets. Safe for concurrent use.
func (c *Checkpointer) ChecksumAt(cursor int) uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.advance(cursor)
	for id, d := range c.dirty {
		if d {
			c.sums[id] = c.net.Layer[id].Checksum()
			c.dirty[id] = false
		}
	}
	return tensor.CombineChecksums(c.sums)
}

// advance brings net to the sequential state after the first cursor
// subnets; callers hold c.mu.
func (c *Checkpointer) advance(cursor int) {
	if cursor > len(c.subs) {
		cursor = len(c.subs)
	}
	if cursor < c.done {
		c.rebuild()
	}
	for ; c.done < cursor; c.done++ {
		sub := c.subs[c.done]
		views := c.ar.viewsBuf(len(sub.Choices))
		for b, ch := range sub.Choices {
			views[b] = c.net.At(b, ch)
		}
		_, grads := step(c.cfg, c.src.Batch(sub.Seq), sub, views, c.ar)
		for b, ch := range sub.Choices {
			c.net.At(b, ch).ApplySGD(grads[b], c.cfg.LR)
			c.dirty[c.cfg.Space.ID(b, ch)] = true
		}
		c.ar.release(grads)
	}
}
