package guestos

import (
	"fmt"
	"math"

	"javmm/internal/mem"
)

// pfnCache is one application's PFN cache (paper §3.3.4): the frames found
// in its skip-over areas, remembered so that a shrinking area can restore
// transfer bits from the cache rather than from the page tables, which may
// no longer map the departed pages. As in the paper it is a dense array of
// 4-byte entries — "1 MB per GB of skip-over area" — one per page of a VA
// window starting at base that grows to cover every cached page. A slot
// holds PFN+1, so 0 marks an empty slot; n counts the live entries.
//
// All slots are zero whenever n is zero, and len(slots) == cap(slots).
type pfnCache struct {
	base  mem.VA
	slots []uint32
	n     int
}

// minCacheSlots is the smallest window the cache allocates: one leaf page
// table's worth of pages.
const minCacheSlots = 512

// count returns the number of live entries.
func (c *pfnCache) count() int { return c.n }

// index returns va's slot, or ok=false when va lies outside the window.
func (c *pfnCache) index(va mem.VA) (i int, ok bool) {
	if va < c.base {
		return 0, false
	}
	off := uint64(va-c.base) >> mem.PageShift
	if off >= uint64(len(c.slots)) {
		return 0, false
	}
	return int(off), true
}

// get returns the frame cached for the page at va.
func (c *pfnCache) get(va mem.VA) (mem.PFN, bool) {
	i, ok := c.index(va)
	if !ok || c.slots[i] == 0 {
		return 0, false
	}
	return mem.PFN(c.slots[i] - 1), true
}

// put caches p as the frame of the page at va, replacing any earlier entry.
func (c *pfnCache) put(va mem.VA, p mem.PFN) {
	if uint64(p) >= math.MaxUint32 {
		panic(fmt.Sprintf("guestos: PFN %d does not fit a 4-byte cache entry", p))
	}
	i, ok := c.index(va)
	if !ok {
		c.grow(va)
		i, _ = c.index(va)
	}
	if c.slots[i] == 0 {
		c.n++
	}
	c.slots[i] = uint32(p) + 1
}

// del removes the entry for the page at va and returns the frame it held.
func (c *pfnCache) del(va mem.VA) (mem.PFN, bool) {
	i, ok := c.index(va)
	if !ok || c.slots[i] == 0 {
		return 0, false
	}
	p := mem.PFN(c.slots[i] - 1)
	c.slots[i] = 0
	c.n--
	return p, true
}

// each calls fn for every entry in ascending VA order. fn may delete the
// entry it is given.
func (c *pfnCache) each(fn func(va mem.VA, p mem.PFN)) {
	for i := 0; i < len(c.slots) && c.n > 0; i++ {
		if s := c.slots[i]; s != 0 {
			fn(c.base+mem.VA(i)<<mem.PageShift, mem.PFN(s-1))
		}
	}
}

// reset empties the cache, keeping its memory for the next migration.
func (c *pfnCache) reset() {
	clear(c.slots)
	c.n = 0
}

// grow widens the window to cover the page at va. An empty cache just moves
// its window; otherwise the window at least doubles, with the headroom on
// the side it grew toward, so a walk in either direction costs amortized
// O(1) per page.
func (c *pfnCache) grow(va mem.VA) {
	va = va.PageBase()
	if c.n == 0 && len(c.slots) > 0 {
		c.base = va
		return
	}
	lo, hi := va, va+mem.PageSize
	if c.n > 0 {
		lo = min(lo, c.base)
		hi = max(hi, c.base+mem.VA(len(c.slots))<<mem.PageShift)
	}
	need := int((hi - lo) >> mem.PageShift)
	size := max(need, 2*len(c.slots), minCacheSlots)
	if c.n > 0 && va < c.base {
		// Growing downward: put the headroom below, as far as VA 0 allows.
		lo -= mem.VA(min(uint64(size-need), uint64(lo)>>mem.PageShift)) << mem.PageShift
	}
	slots := make([]uint32, size)
	if c.n > 0 {
		copy(slots[(c.base-lo)>>mem.PageShift:], c.slots)
	}
	c.base, c.slots = lo, slots
}
