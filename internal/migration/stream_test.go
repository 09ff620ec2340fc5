package migration

import (
	"bytes"
	"errors"
	"net"
	"testing"
	"time"

	"javmm/internal/guestos"
	"javmm/internal/hypervisor"
	"javmm/internal/mem"
	"javmm/internal/netsim"
	"javmm/internal/simclock"
)

func TestReceiveIntoStoreRoundTrip(t *testing.T) {
	src := mem.NewByteStore(8)
	for p := mem.PFN(0); p < 8; p++ {
		src.Write(p)
	}
	var buf bytes.Buffer
	w := netsim.NewPageWriter(&buf)
	for p := mem.PFN(0); p < 8; p++ {
		if err := w.WritePage(p, src.AppendExport(nil, p)); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.EndIteration(); err != nil {
		t.Fatal(err)
	}
	if err := w.EndStream(); err != nil {
		t.Fatal(err)
	}
	dst := mem.NewByteStore(8)
	pages, err := ReceiveIntoStore(&buf, dst)
	if err != nil {
		t.Fatal(err)
	}
	if pages != 8 {
		t.Fatalf("pages = %d", pages)
	}
	for p := mem.PFN(0); p < 8; p++ {
		if !bytes.Equal(src.Page(p), dst.Page(p)) {
			t.Fatalf("page %d differs", p)
		}
	}
}

func TestReceiveIntoStoreRejectsBadPFN(t *testing.T) {
	var buf bytes.Buffer
	w := netsim.NewPageWriter(&buf)
	payload := mem.NewByteStore(10).AppendExport(nil, 0)
	if err := w.WritePage(9, payload); err != nil {
		t.Fatal(err)
	}
	if err := w.EndStream(); err != nil {
		t.Fatal(err)
	}
	if _, err := ReceiveIntoStore(&buf, mem.NewByteStore(4)); err == nil {
		t.Fatal("out-of-range PFN accepted")
	}
}

func TestReceiveIntoStoreTruncatedStream(t *testing.T) {
	var buf bytes.Buffer
	w := netsim.NewPageWriter(&buf)
	if err := w.WritePage(0, mem.NewByteStore(1).AppendExport(nil, 0)); err != nil {
		t.Fatal(err)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	// No EndStream: the reader must surface the EOF as an error.
	if _, err := ReceiveIntoStore(&buf, mem.NewByteStore(1)); err == nil {
		t.Fatal("truncated stream accepted")
	}
}

// TestStreamedMigrationOverTCP runs a full app-assisted migration with
// byte-backed pages, teeing every received page over a real TCP connection
// to a "remote destination" goroutine, then checks byte equality between the
// source, the local destination and the remote reconstruction.
func TestStreamedMigrationOverTCP(t *testing.T) {
	const pages = 8192 // 32 MiB keeps ByteStore costs low
	clock := simclock.New()
	dom := hypervisor.NewDomain("vm", clock, mem.NewByteStore(pages))
	guest := guestos.NewGuest(dom, guestos.LKMConfig{Clock: clock})

	hot := mem.VARange{Start: 0x1000000, End: 0x1000000 + 1024*mem.PageSize}
	sc := newScribbler(guest, clock, hot, 20000)
	sc.skip = []mem.VARange{hot}
	sc.readyDelay = 20 * time.Millisecond
	sc.register(guest)

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Skipf("loopback TCP unavailable: %v", err)
	}
	defer ln.Close()

	type remoteResult struct {
		store *mem.ByteStore
		pages uint64
		err   error
	}
	done := make(chan remoteResult, 1)
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			done <- remoteResult{err: err}
			return
		}
		defer conn.Close()
		store := mem.NewByteStore(pages)
		n, err := ReceiveIntoStore(conn, store)
		done <- remoteResult{store: store, pages: n, err: err}
	}()

	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	pw := netsim.NewPageWriter(conn)

	dest := NewDestinationWithStore(mem.NewByteStore(pages))
	dest.Tee(pw)
	src := &Source{
		Dom:   dom,
		LKM:   guest.LKM,
		Link:  netsim.NewLink(clock, 20*1000*1000, 0),
		Clock: clock,
		Exec:  sc,
		Dest:  dest,
		Cfg:   Config{Mode: ModeAppAssisted},
	}
	rep, err := src.Migrate()
	if err != nil {
		t.Fatal(err)
	}
	if err := pw.EndStream(); err != nil {
		t.Fatal(err)
	}
	remote := <-done
	if remote.err != nil {
		t.Fatal(remote.err)
	}
	if dest.TeeErrors() != 0 {
		t.Fatalf("tee errors = %d", dest.TeeErrors())
	}
	if remote.pages != dest.PagesReceived {
		t.Fatalf("remote applied %d pages, local %d", remote.pages, dest.PagesReceived)
	}

	// Remote reconstruction must equal the local destination byte-for-byte.
	local := dest.Store.(*mem.ByteStore)
	for p := mem.PFN(0); p < pages; p++ {
		if !bytes.Equal(local.Page(p), remote.store.Page(p)) {
			t.Fatalf("page %d differs between local and remote destinations", p)
		}
	}
	// And the standard correctness invariant holds against the source.
	err = VerifyMigration(dom.Store(), remote.store, rep.FinalTransfer,
		func(p mem.PFN) bool { return guest.Frames.Allocated(p) })
	if err != nil {
		t.Fatal(err)
	}
}

func TestMigrationCancelledByDeadline(t *testing.T) {
	r := newRig(4096, 5*1000*1000) // slow link: never converges quickly
	hot := mem.VARange{Start: 0x1000000, End: 0x1000000 + 1024*mem.PageSize}
	sc := newScribbler(r.guest, r.clock, hot, 20000)
	sc.skip = []mem.VARange{hot}
	sc.register(r.guest)

	src := r.source(Config{Mode: ModeAppAssisted, CancelAfter: 2 * time.Second}, sc)
	rep, err := src.Migrate()
	if !errors.Is(err, ErrCancelled) {
		t.Fatalf("err = %v, want ErrCancelled", err)
	}
	if rep == nil || len(rep.Iterations) == 0 {
		t.Fatal("no partial report returned")
	}
	// The abort happens shortly after the deadline (chunk granularity).
	if rep.TotalTime > 4*time.Second {
		t.Fatalf("cancelled migration ran %v past a 2s deadline", rep.TotalTime)
	}
	// The guest is back to normal: LKM reset, log-dirty off, VM running.
	if r.guest.LKM.State() != guestos.StateInitialized {
		t.Fatalf("LKM state after abort = %v", r.guest.LKM.State())
	}
	if r.dom.LogDirtyEnabled() {
		t.Fatal("log-dirty still enabled after abort")
	}
	if r.dom.Paused() {
		t.Fatal("domain paused after abort")
	}
	tb := r.guest.LKM.TransferBitmap()
	if tb.Count() != tb.Len() {
		t.Fatal("transfer bitmap not reset after abort")
	}

	// A fresh migration after the abort succeeds end-to-end.
	r.dest = NewDestination(4096)
	src2 := r.source(Config{Mode: ModeAppAssisted}, sc)
	rep2, err := src2.Migrate()
	if err != nil {
		t.Fatal(err)
	}
	r.verify(t, rep2)
}

func TestMigrationCancelledByHook(t *testing.T) {
	r := newRig(2048, 5*1000*1000)
	calls := 0
	cfg := Config{
		Mode: ModeVanilla,
		ShouldCancel: func() bool {
			calls++
			return calls > 1 // abort at the second chunk of iteration 1
		},
	}
	_, err := r.source(cfg, nil).Migrate()
	if !errors.Is(err, ErrCancelled) {
		t.Fatalf("err = %v, want ErrCancelled", err)
	}
}

func TestCancelDuringPrepareWaitReleasesApps(t *testing.T) {
	r := newRig(2048, 50*1000*1000)
	hot := mem.VARange{Start: 0x1000000, End: 0x1000000 + 256*mem.PageSize}
	sc := newScribbler(r.guest, r.clock, hot, 1000)
	sc.skip = []mem.VARange{hot}
	sc.readyDelay = 30 * time.Second // very slow app
	sc.register(r.guest)

	src := r.source(Config{Mode: ModeAppAssisted, CancelAfter: 3 * time.Second}, sc)
	if _, err := src.Migrate(); !errors.Is(err, ErrCancelled) {
		t.Fatalf("err = %v, want ErrCancelled", err)
	}
	if r.guest.LKM.State() != guestos.StateInitialized {
		t.Fatalf("LKM state = %v", r.guest.LKM.State())
	}
}

// failingWriter accepts the first n bytes, then rejects everything.
type failingWriter struct {
	n    int
	took int
}

var errSinkFull = errors.New("sink full")

func (f *failingWriter) Write(p []byte) (int, error) {
	if f.took+len(p) > f.n {
		return 0, errSinkFull
	}
	f.took += len(p)
	return len(p), nil
}

// A tee whose underlying writer fails must not fail the migration: the
// destination keeps importing pages and only the error counter moves.
func TestTeeErrorsCountWriterFailures(t *testing.T) {
	const pages = 2048
	clock := simclock.New()
	dom := hypervisor.NewDomain("vm", clock, mem.NewByteStore(pages))
	guestos.NewGuest(dom, guestos.LKMConfig{Clock: clock})

	// Full 4 KiB payloads overflow the page writer's buffer on every frame,
	// so the failure surfaces inside WritePage after ~32 KiB.
	fw := &failingWriter{n: 32 << 10}
	pw := netsim.NewPageWriter(fw)
	dest := NewDestinationWithStore(mem.NewByteStore(pages))
	dest.Tee(pw)

	src := &Source{
		Dom:   dom,
		Link:  netsim.NewLink(clock, 50*1000*1000, 0),
		Clock: clock,
		Dest:  dest,
		Cfg:   Config{Mode: ModeVanilla},
	}
	rep, err := src.Migrate()
	if err != nil {
		t.Fatalf("migration failed on tee errors: %v", err)
	}
	if dest.TeeErrors() == 0 {
		t.Fatal("failing tee writer recorded no errors")
	}
	if dest.PagesReceived != rep.TotalPagesSent {
		t.Fatalf("destination imported %d of %d pages despite tee failure",
			dest.PagesReceived, rep.TotalPagesSent)
	}
	if err := VerifyMigration(dom.Store(), dest.Store, rep.FinalTransfer, nil); err != nil {
		t.Fatalf("destination diverged: %v", err)
	}
}

// The same failure on a version-backed store, whose tiny payloads sit in
// the writer's buffer: the sticky bufio error must still reach the error
// counter once the buffer drains.
func TestTeeErrorsWithBufferedPayloads(t *testing.T) {
	r := newRig(4096, 50*1000*1000)
	pw := netsim.NewPageWriter(&failingWriter{n: 4 << 10})
	r.dest.Tee(pw)

	rep, err := r.source(Config{Mode: ModeVanilla}, nil).Migrate()
	if err != nil {
		t.Fatal(err)
	}
	if pw.Flush() == nil && r.dest.TeeErrors() == 0 {
		t.Fatal("no tee error surfaced from the failed underlying writer")
	}
	r.verify(t, rep)
}
