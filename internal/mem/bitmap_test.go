package mem

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

func TestBitmapSetClearTest(t *testing.T) {
	b := NewBitmap(130)
	for _, p := range []PFN{0, 1, 63, 64, 65, 127, 128, 129} {
		if b.Test(p) {
			t.Fatalf("fresh bitmap has bit %d set", p)
		}
		b.Set(p)
		if !b.Test(p) {
			t.Fatalf("bit %d not set after Set", p)
		}
		b.Clear(p)
		if b.Test(p) {
			t.Fatalf("bit %d set after Clear", p)
		}
	}
}

func TestBitmapOutOfRangePanics(t *testing.T) {
	b := NewBitmap(10)
	for name, fn := range map[string]func(){
		"Set":   func() { b.Set(10) },
		"Clear": func() { b.Clear(10) },
		"Test":  func() { b.Test(10) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s(10) on 10-bit bitmap did not panic", name)
				}
			}()
			fn()
		}()
	}
}

func TestBitmapSetAllCount(t *testing.T) {
	for _, n := range []uint64{1, 63, 64, 65, 100, 128, 1000} {
		b := NewBitmap(n)
		b.SetAll()
		if got := b.Count(); got != n {
			t.Fatalf("n=%d: Count after SetAll = %d", n, got)
		}
		b.ClearAll()
		if got := b.Count(); got != 0 {
			t.Fatalf("n=%d: Count after ClearAll = %d", n, got)
		}
	}
}

func TestBitmapClone(t *testing.T) {
	b := NewBitmap(100)
	b.Set(7)
	c := b.Clone()
	c.Set(8)
	if b.Test(8) {
		t.Fatal("Clone shares storage with original")
	}
	if !c.Test(7) {
		t.Fatal("Clone dropped original bit")
	}
}

func TestBitmapCopyFrom(t *testing.T) {
	a, b := NewBitmap(70), NewBitmap(70)
	a.Set(3)
	b.Set(60)
	b.CopyFrom(a)
	if !b.Test(3) || b.Test(60) {
		t.Fatal("CopyFrom did not overwrite")
	}
}

func TestBitmapBooleanOps(t *testing.T) {
	a, b := NewBitmap(128), NewBitmap(128)
	a.Set(1)
	a.Set(2)
	b.Set(2)
	b.Set(3)

	and := a.Clone()
	and.And(b)
	if and.Count() != 1 || !and.Test(2) {
		t.Fatal("And wrong")
	}

	andnot := a.Clone()
	andnot.AndNot(b)
	if andnot.Count() != 1 || !andnot.Test(1) {
		t.Fatal("AndNot wrong")
	}

	or := a.Clone()
	or.Or(b)
	if or.Count() != 3 {
		t.Fatal("Or wrong")
	}
}

func TestBitmapLengthMismatchPanics(t *testing.T) {
	a, b := NewBitmap(64), NewBitmap(65)
	for name, fn := range map[string]func(){
		"And":      func() { a.And(b) },
		"AndNot":   func() { a.AndNot(b) },
		"Or":       func() { a.Or(b) },
		"CopyFrom": func() { a.CopyFrom(b) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s with mismatched lengths did not panic", name)
				}
			}()
			fn()
		}()
	}
}

func TestBitmapRangeOrderAndStop(t *testing.T) {
	b := NewBitmap(200)
	want := []PFN{0, 5, 63, 64, 150, 199}
	for _, p := range want {
		b.Set(p)
	}
	var got []PFN
	b.Range(func(p PFN) bool {
		got = append(got, p)
		return true
	})
	if len(got) != len(want) {
		t.Fatalf("Range visited %v, want %v", got, want)
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("Range visited %v, want %v", got, want)
		}
	}
	var count int
	b.Range(func(PFN) bool {
		count++
		return count < 3
	})
	if count != 3 {
		t.Fatalf("Range did not stop: visited %d", count)
	}
}

func TestBitmapNextSet(t *testing.T) {
	b := NewBitmap(200)
	b.Set(5)
	b.Set(64)
	b.Set(199)
	cases := []struct {
		from, want PFN
	}{
		{0, 5}, {5, 5}, {6, 64}, {64, 64}, {65, 199}, {199, 199},
	}
	for _, c := range cases {
		if got := b.NextSet(c.from); got != c.want {
			t.Errorf("NextSet(%d) = %d, want %d", c.from, got, c.want)
		}
	}
	b.Clear(199)
	if got := b.NextSet(65); got != NoPFN {
		t.Errorf("NextSet past last bit = %d, want NoPFN", got)
	}
	if got := b.NextSet(200); got != NoPFN {
		t.Errorf("NextSet out of range = %d, want NoPFN", got)
	}
}

// TestBitmapQuickAgainstMap cross-checks the bitmap against a map[PFN]bool
// reference under random operations.
func TestBitmapQuickAgainstMap(t *testing.T) {
	const n = 300
	rng := rand.New(rand.NewSource(42))
	b := NewBitmap(n)
	ref := make(map[PFN]bool)
	for i := 0; i < 5000; i++ {
		p := PFN(rng.Intn(n))
		switch rng.Intn(3) {
		case 0:
			b.Set(p)
			ref[p] = true
		case 1:
			b.Clear(p)
			delete(ref, p)
		case 2:
			if b.Test(p) != ref[p] {
				t.Fatalf("step %d: Test(%d) = %v, ref %v", i, p, b.Test(p), ref[p])
			}
		}
	}
	if got := b.Count(); got != uint64(len(ref)) {
		t.Fatalf("Count = %d, ref %d", got, len(ref))
	}
}

// De Morgan on bitmaps: a &^ b == a & ^b is implicit in AndNot; check
// count identity |a| = |a&b| + |a&^b| with testing/quick over random words.
func TestBitmapCountIdentity(t *testing.T) {
	f := func(aw, bw [3]uint64) bool {
		a, b := NewBitmap(192), NewBitmap(192)
		for i := 0; i < 3; i++ {
			a.words[i] = aw[i]
			b.words[i] = bw[i]
		}
		and := a.Clone()
		and.And(b)
		andnot := a.Clone()
		andnot.AndNot(b)
		return a.Count() == and.Count()+andnot.Count()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// SetEach equals Test-then-Set per PFN: same bits, and its count is the
// number of PFNs whose bit was clear when reached (repeats count once).
func TestBitmapSetEachMatchesTestThenSet(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	a, b := NewBitmap(300), NewBitmap(300)
	for i := 0; i < 200; i++ {
		ps := make([]PFN, rng.Intn(40))
		for k := range ps {
			ps[k] = PFN(rng.Intn(300))
		}
		var want uint64
		for _, p := range ps {
			if !b.Test(p) {
				b.Set(p)
				want++
			}
		}
		if got := a.SetEach(ps); got != want {
			t.Fatalf("SetEach = %d newly set, want %d", got, want)
		}
		if !reflect.DeepEqual(a, b) {
			t.Fatal("SetEach left different bits from Test-then-Set")
		}
		if i%40 == 39 {
			a.ClearAll()
			b.ClearAll()
		}
	}
}
