package chip

import (
	"math"
	"math/bits"
	"sync"

	"dramscope/internal/sim"
)

// This file holds the bank's memory arena and the per-wordline
// flip-threshold caches.
//
// # Arena
//
// Row state lives in per-bank chunked arenas instead of one heap
// allocation per touched wordline: rowState records come from arena
// chunks, and every record's charge words are a sub-slice of its
// chunk's slab. Chunks are appended, never reallocated, so *rowState
// pointers stay stable until Reset; Reset recycles records by
// clearing the used slab prefix (a handful of memclears) and handing
// slots out again in order. Besides making Reset cheap, the slab
// keeps the charge words of consecutively touched rows contiguous,
// which is what the retention-scan, RowCopy, and RD/WR gather/scatter
// kernels walk.
//
// Chunks outlive their chip: Recycle resets the chip and hands its
// chunks to a process-wide pool keyed by row width, and rowStateFor
// draws from that pool before allocating. A pooled chunk is entirely
// zero (Reset cleared every used slab prefix, and the rest was never
// written since its last clear) and every record is overwritten when
// handed out, so a chip built from recycled chunks cannot be told
// apart from one built from fresh memory.
//
// # Flip-threshold tables
//
// Every per-cell quantity the fault model draws — the hammer and press
// uniforms, the retention deadline — is a pure function of
// (seed, bank, wl, x). The tables cache those draws per wordline so a
// re-materialized row never recomputes them; because clones of an Env
// share the chip seed, the tables legitimately survive Reset and
// amortize across every pooled measurement. The cached values are
// produced by the very same Params calls the scalar path makes
// (HammerU/PressU/RetentionTime), so decisions taken through them are
// bit-identical to the uncached path.

// arenaChunkRows is the rowState capacity of one arena chunk. Chunks
// are small enough that a sparsely used bank wastes little and large
// enough that Reset is a handful of memclears, not thousands.
const arenaChunkRows = 64

// arenaChunk is one arena allocation unit: arenaChunkRows rowState
// records and the charge words they slice, arenaChunkRows*words long.
type arenaChunk struct {
	states [arenaChunkRows]rowState
	slab   []uint64
}

// arenaPools maps a row width in words to the *sync.Pool of cleared
// *arenaChunk values of that width, shared by every chip in the
// process.
var arenaPools sync.Map

// arenaPool returns the process-wide chunk pool for one row width.
func arenaPool(words int) *sync.Pool {
	if p, ok := arenaPools.Load(words); ok {
		return p.(*sync.Pool)
	}
	p, _ := arenaPools.LoadOrStore(words, new(sync.Pool))
	return p.(*sync.Pool)
}

// flipTabMargin pads the conservative per-cell stress bound used to
// skip non-candidate cells. The true per-cell stress is bounded by
// delta * MaxFactor up to a few ULPs of float rounding; the margin is
// many orders of magnitude wider than that, and still far too small to
// admit spurious candidates in practice.
const flipTabMargin = 1 + 1e-9

// uTab caches a wordline's per-cell hammer/press uniform draws plus
// per-64-cell-word minima, so materialize can skip whole words whose
// best draw cannot beat the accumulated stress.
type uTab struct {
	hamU, prsU       []float64 // per-cell draws, x-indexed
	hamMinW, prsMinW []float64 // per-word minima of the above
}

// retTab caches a wordline's per-cell retention deadlines with
// per-word minima: a retention scan compares elapsed time against the
// word minimum and only walks cells in words that can decay at all.
type retTab struct {
	deadline []sim.Time
	minW     []sim.Time
}

// rowStateFor returns (creating lazily) the state of a wordline
// WITHOUT materializing pending faults. Callers on the access path
// must use materialize instead. The first row state a bank ever needs
// allocates the bank's dense per-wordline arrays: every path that
// reads them (activate, pulse, precharge of an open row) reaches
// rowStateFor first.
func (c *Chip) rowStateFor(b *bank, wl int) *rowState {
	if b.rows == nil {
		b.allocWordlines(c.topo.PhysRows())
	}
	rs := b.rows[wl]
	if rs == nil {
		ci, ri := b.inUse/arenaChunkRows, b.inUse%arenaChunkRows
		if ci == len(b.chunks) {
			ch, _ := c.arenas.Get().(*arenaChunk)
			if ch == nil {
				ch = &arenaChunk{slab: make([]uint64, arenaChunkRows*c.words)}
			}
			b.chunks = append(b.chunks, ch)
		}
		ch := b.chunks[ci]
		rs = &ch.states[ri]
		// The charge words were cleared by Reset (or are fresh), so
		// only the snapshot metadata needs zeroing.
		*rs = rowState{charge: ch.slab[ri*c.words : (ri+1)*c.words : (ri+1)*c.words]}
		b.inUse++
		b.rows[wl] = rs
		b.touched = append(b.touched, int32(wl))
	}
	return rs
}

// allocWordlines builds a bank's dense per-wordline arrays on its
// first touch; most experiments drive one bank of many.
func (b *bank) allocWordlines(physRows int) {
	b.rows = make([]*rowState, physRows)
	b.acts = make([]int64, physRows)
	b.press = make([]float64, physRows)
	b.uTabs = make([]*uTab, physRows)
	b.retTabs = make([]*retTab, physRows)
	b.retSeen = make([]uint8, physRows)
}

// resetArena recycles a bank's row state: the used slab prefix is
// cleared (at most one memclear per chunk in use) and every slot
// becomes available again.
func (b *bank) resetArena(words int) {
	full, rem := b.inUse/arenaChunkRows, b.inUse%arenaChunkRows
	for i := 0; i < full; i++ {
		clear(b.chunks[i].slab)
	}
	if rem > 0 {
		clear(b.chunks[full].slab[:rem*words])
	}
	b.inUse = 0
}

// Recycle resets the chip and returns its row-state arenas to the
// process-wide pool, where the next chip of the same row width draws
// them instead of allocating. The chip's final owner calls it; the
// chip stays usable, behaving like a fresh one that allocates again
// on use.
func (c *Chip) Recycle() {
	c.Reset()
	for _, b := range c.banks {
		for i, ch := range b.chunks {
			c.arenas.Put(ch)
			b.chunks[i] = nil
		}
		b.chunks = b.chunks[:0]
	}
}

// uTabFor returns the wordline's cached uniform draws, building them
// on first use. Building costs one HammerU+PressU sweep — no more than
// the scalar pass it replaces spends on draws — and pays for itself on
// the same materialize via the word-minima skip.
func (c *Chip) uTabFor(bankID int, b *bank, wl int) *uTab {
	tb := b.uTabs[wl]
	if tb != nil {
		return tb
	}
	n := c.prof.RowBits
	tb = &uTab{
		hamU:    make([]float64, n),
		prsU:    make([]float64, n),
		hamMinW: make([]float64, c.words),
		prsMinW: make([]float64, c.words),
	}
	for w := 0; w < c.words; w++ {
		hmin, pmin := math.Inf(1), math.Inf(1)
		base := w << 6
		for i := 0; i < 64; i++ {
			x := base + i
			hu := c.fp.HammerU(bankID, wl, x)
			pu := c.fp.PressU(bankID, wl, x)
			tb.hamU[x], tb.prsU[x] = hu, pu
			if hu < hmin {
				hmin = hu
			}
			if pu < pmin {
				pmin = pu
			}
		}
		tb.hamMinW[w], tb.prsMinW[w] = hmin, pmin
	}
	b.uTabs[wl] = tb
	return tb
}

// retTabFor returns the wordline's cached retention deadlines, or nil
// while the wordline is still cold. Deadlines are log-uniform draws —
// by far the most expensive per-cell quantity — so the table is built
// eagerly only when it pays for itself: on the first scan of a row
// with mostly charged cells (the build costs about what the on-demand
// scan would), or on the second scan of any row. Sparse once-scanned
// rows — probe samples, incidental reads — stay on the cheaper
// on-demand path.
func (c *Chip) retTabFor(bankID int, b *bank, wl int, dense bool) *retTab {
	rt := b.retTabs[wl]
	if rt != nil {
		return rt
	}
	if !dense && b.retSeen[wl] == 0 {
		b.retSeen[wl] = 1
		return nil
	}
	rt = &retTab{
		deadline: make([]sim.Time, c.prof.RowBits),
		minW:     make([]sim.Time, c.words),
	}
	for w := 0; w < c.words; w++ {
		min := sim.Time(math.MaxInt64)
		base := w << 6
		for i := 0; i < 64; i++ {
			x := base + i
			d := c.fp.RetentionTime(bankID, wl, x)
			rt.deadline[x] = d
			if d < min {
				min = d
			}
		}
		rt.minW[w] = min
	}
	b.retTabs[wl] = rt
	return rt
}

// denseCharge reports whether at least half the row's cells hold
// charge — the break-even point past which building the retention
// deadline table outright costs no more than one on-demand scan.
func (c *Chip) denseCharge(rs *rowState) bool {
	n := 0
	for _, w := range rs.charge {
		n += bits.OnesCount64(w)
	}
	return 2*n >= c.prof.RowBits
}
