package guestos

import (
	"math/rand"
	"testing"

	"javmm/internal/hypervisor"
	"javmm/internal/mem"
	"javmm/internal/simclock"
)

// checkCache compares the dense cache with a map model: every entry
// agrees, len matches and each walks the entries in ascending VA order.
func checkCache(t *testing.T, step int, c *pfnCache, model map[mem.VA]mem.PFN) {
	t.Helper()
	if c.count() != len(model) {
		t.Fatalf("step %d: len %d, model %d", step, c.count(), len(model))
	}
	for va, want := range model {
		if got, ok := c.get(va); !ok || got != want {
			t.Fatalf("step %d: get(%#x) = %d,%v, want %d", step, uint64(va), got, ok, want)
		}
	}
	seen := 0
	prev := mem.VA(0)
	c.each(func(va mem.VA, p mem.PFN) {
		if seen > 0 && va <= prev {
			t.Fatalf("step %d: each out of order: %#x after %#x", step, uint64(va), uint64(prev))
		}
		if want, ok := model[va]; !ok || want != p {
			t.Fatalf("step %d: each yielded %#x->%d, model %d,%v", step, uint64(va), p, want, ok)
		}
		prev = va
		seen++
	})
	if seen != len(model) {
		t.Fatalf("step %d: each yielded %d entries, model %d", step, seen, len(model))
	}
}

func TestPFNCacheGrowsBelowAndAboveBase(t *testing.T) {
	var c pfnCache
	model := map[mem.VA]mem.PFN{}
	put := func(va mem.VA, p mem.PFN) {
		c.put(va, p)
		model[va] = p
	}
	const base = mem.VA(64 << 20)
	put(base, 7)
	put(base+mem.PageSize, 0) // PFN 0 is a real frame, not an empty slot
	checkCache(t, 0, &c, model)

	// Far above the window, then far below it: both keep every entry.
	put(base+mem.VA(3*minCacheSlots)*mem.PageSize, 11)
	checkCache(t, 1, &c, model)
	put(base-mem.VA(5*minCacheSlots)*mem.PageSize, 12)
	checkCache(t, 2, &c, model)
	if c.base > base-mem.VA(5*minCacheSlots)*mem.PageSize {
		t.Fatalf("window base %#x does not cover the low entry", uint64(c.base))
	}

	// Downward growth stops at VA 0.
	put(mem.PageSize, 13)
	checkCache(t, 3, &c, model)

	// Overwrite keeps the count; delete of a missing page is a no-op.
	put(base, 8)
	if _, ok := c.del(base + 2*mem.PageSize); ok {
		t.Fatal("del of an empty slot reported an entry")
	}
	if _, ok := c.del(base + mem.VA(100*minCacheSlots)*mem.PageSize); ok {
		t.Fatal("del outside the window reported an entry")
	}
	checkCache(t, 4, &c, model)
	for va := range model {
		if p, ok := c.del(va); !ok || p != model[va] {
			t.Fatalf("del(%#x) = %d,%v, want %d", uint64(va), p, ok, model[va])
		}
		delete(model, va)
	}
	checkCache(t, 5, &c, model)

	// An empty cache moves its window instead of spanning the gap.
	slots := len(c.slots)
	put(mem.VA(1<<40), 21)
	if len(c.slots) != slots {
		t.Fatalf("empty cache grew from %d to %d slots to move its window", slots, len(c.slots))
	}
	checkCache(t, 6, &c, model)
	c.reset()
	for va := range model {
		delete(model, va)
	}
	checkCache(t, 7, &c, model)
}

func TestPFNCacheRandomizedAgainstMap(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	var c pfnCache
	model := map[mem.VA]mem.PFN{}
	const span = 8 * minCacheSlots
	center := mem.VA(span * mem.PageSize)
	for step := 0; step < 5000; step++ {
		// Walk outward from the centre so the window grows both ways.
		spread := 1 + step*span/5000
		va := center + mem.VA(rng.Intn(2*spread)-spread)*mem.PageSize
		switch rng.Intn(4) {
		case 0:
			p, ok := c.del(va)
			want, had := model[va]
			if ok != had || p != want {
				t.Fatalf("step %d: del(%#x) = %d,%v, model %d,%v", step, uint64(va), p, ok, want, had)
			}
			delete(model, va)
		default:
			p := mem.PFN(rng.Intn(1 << 20))
			c.put(va, p)
			model[va] = p
		}
		if step%250 == 0 {
			checkCache(t, step, &c, model)
		}
	}
	checkCache(t, 5000, &c, model)
}

// In FinalUpdateRewalk mode the final update rebuilds the cache from a fresh
// walk: pages that left the areas get their transfer bits back, pages that
// joined — here below the first window's base and above its end — are
// cached, and cleared bits still equal cache entries.
func TestPFNCacheFinalUpdateRewalk(t *testing.T) {
	clock := simclock.New()
	dom := hypervisor.NewDomain("guest", clock, mem.NewVersionStore(8192), 2)
	g := NewGuest(dom, LKMConfig{Clock: clock, FinalUpdateRewalk: true})
	h := newAppHarness(g, clock, "app")
	mapped := pagesAt(0x400000, 256)
	if err := h.proc.Alloc(mapped); err != nil {
		t.Fatal(err)
	}
	first := pagesAt(0x400000+64*mem.PageSize, 64)
	final := pagesAt(0x400000, 200) // grows below and above first
	h.queryAreas = []mem.VARange{first}
	h.readyAreas = []mem.VARange{pagesAt(0x400000+8*mem.PageSize, 4), final}

	invariant := func(stage string) {
		t.Helper()
		tb := g.LKM.TransferBitmap()
		if cleared := int(tb.Len() - tb.Count()); cleared != g.LKM.CacheEntries() {
			t.Fatalf("%s: cleared bits %d != cache entries %d", stage, cleared, g.LKM.CacheEntries())
		}
	}
	daemon := g.LKM.DaemonEndpoint()
	daemon.Bind(func(any) {})
	daemon.Notify(EvMigrationBegin{})
	invariant("first update")
	if g.LKM.CacheEntries() != 64 {
		t.Fatalf("first update cached %d pages, want 64", g.LKM.CacheEntries())
	}

	// Free the tail of the final area: the re-walk must not find it.
	h.proc.Free(pagesAt(0x400000+190*mem.PageSize, 10))
	daemon.Notify(EvEnteringLastIter{})
	if g.LKM.State() != StateSuspensionReady {
		t.Fatalf("state %v after prepare", g.LKM.State())
	}
	invariant("final update")
	if g.LKM.CacheEntries() != 190 {
		t.Fatalf("final update cached %d pages, want 190", g.LKM.CacheEntries())
	}
	tb := g.LKM.TransferBitmap()
	for va := mapped.Start; va < mapped.End; va += mem.PageSize {
		p, ok := h.proc.AS.Translate(va)
		if !ok {
			continue // freed before the final update
		}
		if skip := va < 0x400000+190*mem.PageSize; tb.Test(p) == skip {
			t.Fatalf("page %#x: transfer bit %v", uint64(va), tb.Test(p))
		}
	}
	if g.LKM.CacheHighWater != 190 || g.LKM.CacheBytes() != 190*4 {
		t.Fatalf("high water %d (%d bytes), want 190 (760 bytes)", g.LKM.CacheHighWater, g.LKM.CacheBytes())
	}

	daemon.Notify(EvVMResumed{})
	invariant("resumed")
	if g.LKM.CacheEntries() != 0 || tb.Count() != tb.Len() {
		t.Fatal("resume did not reset the cache and bitmap")
	}
}
