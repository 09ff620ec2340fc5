package migration

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"javmm/internal/faults"
	"javmm/internal/hypervisor"
	"javmm/internal/mem"
	"javmm/internal/netsim"
	"javmm/internal/obs"
	"javmm/internal/obs/ledger"
	"javmm/internal/simclock"
)

// scanGuest is the guest of the scan test. Every Run — the guest slice of a
// chunk flush — re-dirties pages, flips transfer bits and frees or
// reallocates frames, all drawn from a seeded PRNG, so the pages a scan
// examines after a flush see new state.
type scanGuest struct {
	clock    *simclock.Clock
	dom      *hypervisor.Domain
	transfer *mem.Bitmap
	free     *mem.Bitmap
	rng      *rand.Rand
	runs     int
}

func flip(b *mem.Bitmap, p mem.PFN) {
	if b.Test(p) {
		b.Clear(p)
	} else {
		b.Set(p)
	}
}

func (g *scanGuest) Run(d time.Duration) {
	g.runs++
	n := g.dom.NumPages()
	for i := 0; i < 200; i++ {
		g.dom.WritePage(mem.PFN(g.rng.Uint64() % n))
		flip(g.transfer, mem.PFN(g.rng.Uint64()%n))
		flip(g.free, mem.PFN(g.rng.Uint64()%n))
	}
	g.clock.Advance(d)
}

// recordingCodec logs the order it encodes pages in and gives each page its
// own wire size and CPU cost, so sums depend on which pages were sent.
type recordingCodec struct{ order []mem.PFN }

func (c *recordingCodec) Encode(p mem.PFN, raw uint64) (uint64, time.Duration) {
	c.order = append(c.order, p)
	return raw - uint64(p%7), time.Duration(p % 5)
}

// recordingSink accepts every run and logs the PFNs of each call.
type recordingSink struct{ calls [][]mem.PFN }

func (r *recordingSink) ReceivePages(pfns []mem.PFN, _ []byte) (int, error) {
	r.calls = append(r.calls, append([]mem.PFN(nil), pfns...))
	return len(pfns), nil
}

// scanRig is one Source bound for a lone runIteration call, with its guest,
// codec and sink exposed for comparison.
type scanRig struct {
	s      *Source
	guest  *scanGuest
	codec  *recordingCodec
	sink   *recordingSink
	toSend *mem.Bitmap
}

// randomWord draws a word with one of several densities, so scans meet
// empty, sparse, dense and full words.
func randomWord(rng *rand.Rand) uint64 {
	switch rng.Intn(5) {
	case 0:
		return 0
	case 1:
		return ^uint64(0)
	case 2:
		return rng.Uint64() & rng.Uint64() & rng.Uint64()
	}
	return rng.Uint64() | rng.Uint64()
}

// randomBitmap fills a bitmap of n bits word by word.
func randomBitmap(rng *rand.Rand, n uint64) *mem.Bitmap {
	b := mem.NewBitmap(n)
	for p := mem.PFN(0); uint64(p) < n; p++ {
		if p&63 == 0 {
			w := randomWord(rng)
			for j := mem.PFN(0); j < 64 && uint64(p+j) < n; j++ {
				if w>>j&1 != 0 {
					b.Set(p + j)
				}
			}
		}
	}
	return b
}

// newScanRig builds the same random state for every call with the same seed:
// to-send, transfer, free and skipped-ever bitmaps, and a round of dirty
// pages. The page count is not a multiple of 64, so the last word is partial.
func newScanRig(seed int64, chunkPages uint64) *scanRig {
	const n = 2048 + 37
	rng := rand.New(rand.NewSource(seed))
	clock := simclock.New()
	dom := hypervisor.NewDomain("vm", clock, mem.NewVersionStore(n))
	if err := dom.EnableLogDirty(); err != nil {
		panic(err)
	}
	for i := 0; i < n/2; i++ {
		dom.WritePage(mem.PFN(rng.Intn(n)))
	}
	g := &scanGuest{
		clock:    clock,
		dom:      dom,
		transfer: randomBitmap(rng, n),
		free:     randomBitmap(rng, n),
		rng:      rng,
	}
	r := &scanRig{guest: g, codec: &recordingCodec{}, sink: &recordingSink{}, toSend: randomBitmap(rng, n)}
	r.s = &Source{
		Dom:   dom,
		Link:  netsim.NewLink(clock, 100*1000*1000, 0),
		Clock: clock,
		Exec:  g,
		Cfg: Config{
			ChunkPages:      chunkPages,
			PageExamineCost: 3,
			PageCopyCost:    5,
			Ledger:          ledger.New(),
		},
	}
	s := r.s
	s.Cfg.FillDefaults()
	s.Cfg.Ledger.Begin(n)
	s.report = &Report{}
	s.skippedEver = randomBitmap(rng, n)
	s.skip = pageSkip{transfer: g.transfer, free: g.free.Test}
	s.codec = r.codec
	s.sink = r.sink
	s.chunk.reserve(dom, chunkPages)
	return r
}

// refRunIteration is the page-at-a-time scan that the word scan replaced,
// kept as its reference. Each page of toSend, in order, costs one examine;
// it is skipped if its transfer bit is clear, else if its frame is free,
// else deferred if it is dirty in this round (live iterations only), and
// otherwise encoded and queued, with a flush whenever the chunk is full.
func refRunIteration(s *Source, transfer, free *mem.Bitmap, index int, toSend *mem.Bitmap, last bool) IterationStats {
	st := IterationStats{Index: index, Start: s.Clock.Now(), Last: last, PagesConsidered: toSend.Count()}
	dirtyBefore := s.Dom.DirtyEvents()
	store := s.Dom.Store()
	rawWire := store.WireSize()
	c := &s.chunk
	c.reset()
	toSend.Range(func(p mem.PFN) bool {
		if s.aborted {
			return false
		}
		s.report.CPUTime += s.Cfg.PageExamineCost
		switch {
		case !transfer.Test(p):
			st.PagesSkippedBitmap++
			s.Cfg.Ledger.PageSkipped(p, index, rawWire, ledger.SkipBitmap)
			s.skippedEver.Set(p)
			return true
		case free.Test(p):
			st.PagesSkippedFree++
			s.Cfg.Ledger.PageSkipped(p, index, rawWire, ledger.SkipFree)
			s.skippedEver.Set(p)
			return true
		}
		if !last && s.Dom.DirtyWord(int(p>>6))>>(p&63)&1 != 0 {
			st.PagesSkippedDirty++
			s.Cfg.Ledger.PageSkipped(p, index, rawWire, ledger.SkipDirty)
			return true
		}
		w, encodeCPU := s.codec.Encode(p, rawWire)
		s.report.CPUTime += encodeCPU
		c.pfns = append(c.pfns, p)
		c.wires = append(c.wires, w)
		c.wire += w
		c.payloads = store.AppendExport(c.payloads, p)
		if uint64(len(c.pfns)) >= s.Cfg.ChunkPages {
			s.flush(&st, index, last)
		}
		return true
	})
	s.flush(&st, index, last)
	st.Duration = s.Clock.Now() - st.Start
	st.PagesDirtiedDuring = s.Dom.DirtyEvents() - dirtyBefore
	return st
}

// TestWordScanMatchesPageScan runs the word scan and the page-at-a-time
// reference over the same random state, with a guest that changes the
// dirty, transfer and free state on every flush. Chunk sizes around a word
// make chunks fill mid-word, where the word scan must take the word's pages
// up to the one that filled the chunk and classify the rest afresh.
func TestWordScanMatchesPageScan(t *testing.T) {
	for _, chunkPages := range []uint64{1, 63, 64, 65, 1000} {
		for seed := int64(1); seed <= 6; seed++ {
			for _, last := range []bool{false, true} {
				name := fmt.Sprintf("chunk%d/seed%d/last=%v", chunkPages, seed, last)
				word, ref := newScanRig(seed, chunkPages), newScanRig(seed, chunkPages)
				gotSt := word.s.runIteration(2, word.toSend, last)
				wantSt := refRunIteration(ref.s, ref.guest.transfer, ref.guest.free, 2, ref.toSend, last)
				if gotSt != wantSt {
					t.Fatalf("%s: stats\nword: %+v\npage: %+v", name, gotSt, wantSt)
				}
				if gotSt.PagesSent == 0 || gotSt.PagesSkippedBitmap == 0 || gotSt.PagesSkippedFree == 0 ||
					(!last && gotSt.PagesSkippedDirty == 0) {
					t.Fatalf("%s: the random state does not exercise every outcome: %+v", name, gotSt)
				}
				if w, p := word.s.report, ref.s.report; w.CPUTime != p.CPUTime || w.TotalPagesSent != p.TotalPagesSent {
					t.Fatalf("%s: CPU time %v vs %v, pages sent %d vs %d", name,
						w.CPUTime, p.CPUTime, w.TotalPagesSent, p.TotalPagesSent)
				}
				if !reflect.DeepEqual(word.s.Cfg.Ledger.Summary(), ref.s.Cfg.Ledger.Summary()) ||
					!reflect.DeepEqual(word.s.Cfg.Ledger.TopPages(1<<20), ref.s.Cfg.Ledger.TopPages(1<<20)) {
					t.Fatalf("%s: ledgers differ", name)
				}
				if !reflect.DeepEqual(word.s.skippedEver, ref.s.skippedEver) {
					t.Fatalf("%s: skipped-ever sets differ", name)
				}
				if !reflect.DeepEqual(word.sink.calls, ref.sink.calls) {
					t.Fatalf("%s: chunk sequences differ (%d vs %d chunks)", name,
						len(word.sink.calls), len(ref.sink.calls))
				}
				if !reflect.DeepEqual(word.codec.order, ref.codec.order) {
					t.Fatalf("%s: encode order differs", name)
				}
				if word.guest.runs != ref.guest.runs || word.guest.runs != len(word.sink.calls) {
					t.Fatalf("%s: guest ran %d vs %d times for %d chunks", name,
						word.guest.runs, ref.guest.runs, len(word.sink.calls))
				}
			}
		}
	}
}

// packRun exports pfns from src back to back, as the engine packs a chunk.
func packRun(src mem.PageStore, pfns []mem.PFN) []byte {
	var out []byte
	for _, p := range pfns {
		out = src.AppendExport(out, p)
	}
	return out
}

// receivedState is what a destination holds after receiving pages.
type receivedState struct {
	images   []byte
	digests  []uint64
	received *mem.Bitmap
	rolling  uint64
	pages    uint64
	bytes    uint64
	counters map[string]int64
	tee      []byte
}

func snapshotDest(d *Destination, m *obs.Metrics, tee *bytes.Buffer) receivedState {
	st := receivedState{
		images:   packRun(d.Store, allPFNs(d.Store.NumPages())),
		digests:  d.DigestSnapshot(),
		received: d.ReceivedPages().Clone(),
		rolling:  d.RollingDigest(),
		pages:    d.PagesReceived,
		bytes:    d.BytesReceived,
		counters: map[string]int64{},
		tee:      tee.Bytes(),
	}
	for _, c := range m.Snapshot().Counters {
		st.counters[c.Name] = c.Value
	}
	return st
}

func allPFNs(n uint64) []mem.PFN {
	out := make([]mem.PFN, n)
	for i := range out {
		out[i] = mem.PFN(i)
	}
	return out
}

// TestReceivePagesMatchesOnePageRuns receives a whole run in one call and
// the same pages one call each, into both page stores: images, digest
// tables, received sets, rolling digests, counters and tee frames must be
// identical.
func TestReceivePagesMatchesOnePageRuns(t *testing.T) {
	const n = 300
	stores := map[string]func() mem.PageStore{
		"version": func() mem.PageStore { return mem.NewVersionStore(n) },
		"byte":    func() mem.PageStore { return mem.NewByteStore(n) },
	}
	for name, newStore := range stores {
		t.Run(name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(3))
			src := newStore()
			var pfns []mem.PFN
			for p := mem.PFN(0); p < n; p++ {
				for w := rng.Intn(3); w > 0; w-- {
					src.Write(p)
				}
				if rng.Intn(3) > 0 {
					pfns = append(pfns, p)
				}
			}
			payloads := packRun(src, pfns)
			stride := len(payloads) / len(pfns)
			receive := func(whole bool) receivedState {
				clock := simclock.New()
				d := NewDestinationWithStore(newStore())
				m := obs.NewMetrics(clock)
				d.SetMetrics(m)
				var tee bytes.Buffer
				w := netsim.NewPageWriter(&tee)
				d.Tee(w)
				if whole {
					if landed, err := d.ReceivePages(pfns, payloads); landed != len(pfns) || err != nil {
						t.Fatalf("ReceivePages = %d, %v", landed, err)
					}
				} else {
					for i, p := range pfns {
						if err := d.ReceiveCheckpointPage(p, payloads[i*stride:(i+1)*stride]); err != nil {
							t.Fatal(err)
						}
					}
				}
				if err := w.Flush(); err != nil {
					t.Fatal(err)
				}
				return snapshotDest(d, m, &tee)
			}
			whole, single := receive(true), receive(false)
			if whole.pages != uint64(len(pfns)) || len(whole.tee) == 0 {
				t.Fatalf("received %d of %d pages, %d tee bytes", whole.pages, len(pfns), len(whole.tee))
			}
			if !reflect.DeepEqual(whole, single) {
				t.Fatalf("one run differs from one-page runs:\nrun:   %+v\npages: %+v",
					whole.counters, single.counters)
			}
		})
	}
}

// TestReceivePagesStopsAtRefusedPage fires dest.receive at page k of a run:
// ReceivePages returns k and leaves page k onward untouched.
func TestReceivePagesStopsAtRefusedPage(t *testing.T) {
	const n, k = 200, 57
	src := mem.NewVersionStore(n)
	pfns := allPFNs(n)
	for _, p := range pfns {
		src.Write(p)
	}
	clock := simclock.New()
	plan, err := faults.ParsePlan([]string{fmt.Sprintf("dest.receive#%d", k+1)})
	if err != nil {
		t.Fatal(err)
	}
	inj, err := faults.NewInjector(clock, plan)
	if err != nil {
		t.Fatal(err)
	}
	inj.Begin()
	d := NewDestination(n)
	d.SetFaults(inj)
	landed, err := d.ReceivePages(pfns, packRun(src, pfns))
	if landed != k || err == nil {
		t.Fatalf("ReceivePages = %d, %v; want %d and the injected refusal", landed, err, k)
	}
	if d.PagesReceived != k || d.BytesReceived != k*8 {
		t.Fatalf("destination accounted %d pages, %d bytes", d.PagesReceived, d.BytesReceived)
	}
	for _, p := range pfns {
		_, ok := d.PageDigestAt(p)
		if landed := p < k; ok != landed || (d.Store.Version(p) == 1) != landed {
			t.Fatalf("page %d: digest %v, version %d", p, ok, d.Store.Version(p))
		}
	}
}

// TestChunkFlushAllocatesNothing runs a live iteration of five chunks, the
// first four filled mid-word, into a digesting destination: once the
// destination's tables exist, the scan, the chunk flush and the receive
// allocate nothing.
func TestChunkFlushAllocatesNothing(t *testing.T) {
	const n = 8192
	clock := simclock.New()
	dom := hypervisor.NewDomain("vm", clock, mem.NewVersionStore(n))
	if err := dom.EnableLogDirty(); err != nil {
		t.Fatal(err)
	}
	s := &Source{
		Dom:   dom,
		Link:  netsim.NewLink(clock, 100*1000*1000, 0),
		Clock: clock,
		Dest:  NewDestination(n),
		Cfg:   Config{ChunkPages: 1000},
	}
	s.Cfg.FillDefaults()
	s.report = &Report{}
	s.bindStages(nil)
	s.beginIntegrity()
	toSend := mem.NewBitmap(n)
	for p := mem.PFN(0); p < 4999; p++ {
		toSend.Set(p)
	}
	var st IterationStats
	allocs := testing.AllocsPerRun(10, func() {
		st = s.runIteration(1, toSend, false)
	})
	if st.PagesSent != 4999 {
		t.Fatalf("sent %d pages, want 4999", st.PagesSent)
	}
	if allocs != 0 {
		t.Fatalf("steady-state iteration allocated %v objects", allocs)
	}
}
