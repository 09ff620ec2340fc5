package netsim

import (
	"bytes"
	"errors"
	"io"
	"net"
	"testing"
	"time"

	"javmm/internal/faults"
	"javmm/internal/mem"
	"javmm/internal/obs"
	"javmm/internal/simclock"
)

func TestTransferTimeScalesWithBytes(t *testing.T) {
	l := NewLink(simclock.New(), 100, 0) // 100 B/s
	if got := l.TransferTime(100); got != time.Second {
		t.Fatalf("TransferTime(100) = %v, want 1s", got)
	}
	if got := l.TransferTime(50); got != 500*time.Millisecond {
		t.Fatalf("TransferTime(50) = %v, want 500ms", got)
	}
}

func TestZeroBandwidthPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("zero-bandwidth link did not panic")
		}
	}()
	NewLink(simclock.New(), 0, 0)
}

// meteredLink returns a link with a metrics registry attached, so tests can
// read its net.* counters.
func meteredLink(clock *simclock.Clock, bandwidth uint64, latency time.Duration) (*Link, *obs.Metrics) {
	l := NewLink(clock, bandwidth, latency)
	m := obs.NewMetrics(clock)
	l.SetMetrics(m)
	return l, m
}

func TestSendAccounting(t *testing.T) {
	l, m := meteredLink(simclock.New(), 1000, time.Millisecond)
	d1 := l.Send(500)
	d2 := l.Send(250)
	if d1 != 500*time.Millisecond || d2 != 250*time.Millisecond {
		t.Fatalf("durations %v %v", d1, d2)
	}
	if got := m.Counter("net.bytes_sent").Value(); got != 750 {
		t.Fatalf("net.bytes_sent = %d", got)
	}
	if got := m.Counter("net.sends").Value(); got != 2 {
		t.Fatalf("net.sends = %d", got)
	}
	if got := time.Duration(m.Counter("net.busy_ns").Value()); got != 750*time.Millisecond {
		t.Fatalf("net.busy_ns = %v", got)
	}
	if l.RoundTrip() != 2*time.Millisecond {
		t.Fatalf("RoundTrip = %v", l.RoundTrip())
	}
}

func TestModulatorScalesBandwidth(t *testing.T) {
	clock := simclock.New()
	l := NewLink(clock, 1000, 0)
	l.Modulator = func(now time.Duration) float64 {
		if now >= time.Second {
			return 0.5
		}
		return 1.0
	}
	if got := l.TransferTime(1000); got != time.Second {
		t.Fatalf("unmodulated TransferTime = %v", got)
	}
	clock.Advance(time.Second)
	if got := l.TransferTime(1000); got != 2*time.Second {
		t.Fatalf("modulated TransferTime = %v, want 2s", got)
	}
}

func TestModulatorOutOfRangePanics(t *testing.T) {
	l := NewLink(simclock.New(), 1000, 0)
	l.Modulator = func(time.Duration) float64 { return 1.5 }
	defer func() {
		if recover() == nil {
			t.Fatal("out-of-range modulator did not panic")
		}
	}()
	l.Bandwidth()
}

func TestGigabitDefaults(t *testing.T) {
	l := NewLink(simclock.New(), GigabitEffective, 100*time.Microsecond)
	// 2 GiB at gigabit-effective should take 18-19 virtual seconds — the
	// first-iteration cost seen in the paper's Figure 8.
	d := l.TransferTime(2 << 30)
	if d < 17*time.Second || d > 20*time.Second {
		t.Fatalf("2 GiB over gigabit = %v, want ~18s", d)
	}
}

func TestPageStreamRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	w := NewPageWriter(&buf)
	if err := w.WritePage(42, []byte("abc")); err != nil {
		t.Fatal(err)
	}
	if err := w.EndIteration(); err != nil {
		t.Fatal(err)
	}
	if err := w.WritePage(7, nil); err != nil {
		t.Fatal(err)
	}
	if err := w.EndStream(); err != nil {
		t.Fatal(err)
	}

	r := NewPageReader(&buf)
	f, err := r.Next()
	if err != nil || f.Kind != FramePage || f.PFN != 42 || string(f.Payload) != "abc" {
		t.Fatalf("frame 1 = %+v, err %v", f, err)
	}
	f, err = r.Next()
	if err != nil || f.Kind != FrameEndIteration {
		t.Fatalf("frame 2 = %+v, err %v", f, err)
	}
	f, err = r.Next()
	if err != nil || f.Kind != FramePage || f.PFN != 7 || len(f.Payload) != 0 {
		t.Fatalf("frame 3 = %+v, err %v", f, err)
	}
	f, err = r.Next()
	if err != nil || f.Kind != FrameEndStream {
		t.Fatalf("frame 4 = %+v, err %v", f, err)
	}
	if _, err = r.Next(); err != io.EOF {
		t.Fatalf("after end-of-stream err = %v, want EOF", err)
	}
}

func TestPageStreamTruncated(t *testing.T) {
	var buf bytes.Buffer
	w := NewPageWriter(&buf)
	if err := w.WritePage(1, make([]byte, 100)); err != nil {
		t.Fatal(err)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	trunc := buf.Bytes()[:buf.Len()-10]
	r := NewPageReader(bytes.NewReader(trunc))
	if _, err := r.Next(); err == nil {
		t.Fatal("truncated payload decoded without error")
	}
}

func TestPageStreamUnknownKind(t *testing.T) {
	r := NewPageReader(bytes.NewReader([]byte{99}))
	if _, err := r.Next(); err == nil {
		t.Fatal("unknown frame kind accepted")
	}
}

func TestPageStreamOversizePayloadRejected(t *testing.T) {
	var buf bytes.Buffer
	buf.WriteByte(FramePage)
	buf.Write(make([]byte, 8))                // pfn
	buf.Write([]byte{0xFF, 0xFF, 0xFF, 0xFF}) // absurd length
	r := NewPageReader(&buf)
	if _, err := r.Next(); err == nil {
		t.Fatal("oversize payload accepted")
	}
}

// errWriter fails after n bytes.
type errWriter struct{ left int }

func (w *errWriter) Write(p []byte) (int, error) {
	if w.left <= 0 {
		return 0, io.ErrClosedPipe
	}
	n := len(p)
	if n > w.left {
		n = w.left
	}
	w.left -= n
	if n < len(p) {
		return n, io.ErrClosedPipe
	}
	return n, nil
}

func TestPageWriterSurfacesWriteErrors(t *testing.T) {
	w := NewPageWriter(&errWriter{left: 4})
	// The bufio layer absorbs small writes; an explicit flush must fail.
	if err := w.WritePage(1, make([]byte, 8192)); err == nil {
		if err := w.Flush(); err == nil {
			t.Fatal("write beyond failing writer reported no error")
		}
	}
	w2 := NewPageWriter(&errWriter{left: 0})
	if err := w2.EndStream(); err == nil {
		t.Fatal("EndStream on dead writer reported no error")
	}
}

// TestPageStreamOverTCP moves page frames through a real TCP connection,
// the transport the integration migration tests use.
func TestPageStreamOverTCP(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Skipf("loopback TCP unavailable: %v", err)
	}
	defer ln.Close()

	type result struct {
		frames []Frame
		err    error
	}
	done := make(chan result, 1)
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			done <- result{err: err}
			return
		}
		defer conn.Close()
		r := NewPageReader(conn)
		var frames []Frame
		for {
			f, err := r.Next()
			if err != nil {
				done <- result{err: err}
				return
			}
			frames = append(frames, f)
			if f.Kind == FrameEndStream {
				done <- result{frames: frames}
				return
			}
		}
	}()

	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	w := NewPageWriter(conn)
	store := mem.NewByteStore(4)
	store.Write(0)
	store.Write(3)
	for p := mem.PFN(0); p < 4; p++ {
		if err := w.WritePage(p, store.AppendExport(nil, p)); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.EndStream(); err != nil {
		t.Fatal(err)
	}

	res := <-done
	if res.err != nil {
		t.Fatal(res.err)
	}
	if len(res.frames) != 5 {
		t.Fatalf("received %d frames, want 5", len(res.frames))
	}
	dst := mem.NewByteStore(4)
	for _, f := range res.frames[:4] {
		if err := dst.Import(f.PFN, f.Payload); err != nil {
			t.Fatal(err)
		}
	}
	for p := mem.PFN(0); p < 4; p++ {
		if dst.Version(p) != store.Version(p) {
			t.Fatalf("page %d version mismatch after TCP transfer", p)
		}
		if !bytes.Equal(dst.Page(p), store.Page(p)) {
			t.Fatalf("page %d content mismatch after TCP transfer", p)
		}
	}
}

func TestTransferTimeNeverRoundsToZero(t *testing.T) {
	// Regression: a 4-byte control payload on a 10-gigabit link costs
	// ~0.0034ns, which the float arithmetic used to round down to 0ns —
	// making tiny transfers invisible to busy-time accounting.
	l, m := meteredLink(simclock.New(), TenGigabitEffective, 0)
	if d := l.TransferTime(4); d < 1 {
		t.Fatalf("TransferTime(4) = %v, want >= 1ns", d)
	}
	if d := l.TransferTime(0); d != 0 {
		t.Fatalf("TransferTime(0) = %v, want 0 (empty transfer is free)", d)
	}
	// Busy time now reflects every non-empty send.
	l.Send(1)
	if got := m.Counter("net.busy_ns").Value(); got < 1 {
		t.Fatalf("net.busy_ns = %d after a 1-byte send, want >= 1", got)
	}
}

func TestSendErrPartition(t *testing.T) {
	clock := simclock.New()
	inj, err := faults.NewInjector(clock, faults.Plan{
		{Site: faults.SiteLinkPartition, At: time.Second, For: time.Second},
	})
	if err != nil {
		t.Fatal(err)
	}
	inj.Begin()
	l, m := meteredLink(clock, 1000, 0)
	l.SetFaults(inj)

	if d, err := l.SendErr(100); err != nil || d != 100*time.Millisecond {
		t.Fatalf("pre-partition SendErr = (%v, %v)", d, err)
	}
	clock.Advance(time.Second)
	if _, err := l.SendErr(100); !errors.Is(err, ErrPartitioned) {
		t.Fatalf("in-partition SendErr err = %v, want ErrPartitioned", err)
	}
	if got := m.Counter("net.failed_sends").Value(); got != 1 {
		t.Fatalf("net.failed_sends = %d, want 1", got)
	}
	if got := m.Counter("net.bytes_sent").Value(); got != 100 {
		t.Fatalf("net.bytes_sent = %d: a refused send must carry no bytes", got)
	}
	clock.Advance(time.Second)
	if _, err := l.SendErr(100); err != nil {
		t.Fatalf("post-heal SendErr err = %v", err)
	}
}

func TestBandwidthCollapseFault(t *testing.T) {
	clock := simclock.New()
	inj, err := faults.NewInjector(clock, faults.Plan{
		{Site: faults.SiteLinkBandwidth, For: time.Second, Factor: 0.1},
	})
	if err != nil {
		t.Fatal(err)
	}
	inj.Begin()
	l := NewLink(clock, 1000, 0)
	l.SetFaults(inj)
	if bw := l.Bandwidth(); bw != 100 {
		t.Fatalf("collapsed bandwidth = %d, want 100", bw)
	}
	clock.Advance(2 * time.Second)
	if bw := l.Bandwidth(); bw != 1000 {
		t.Fatalf("healed bandwidth = %d, want 1000", bw)
	}
}
