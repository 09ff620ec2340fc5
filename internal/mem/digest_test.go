package mem

import (
	"encoding/binary"
	"math/rand"
	"testing"
)

func TestPageDigestKnownVectors(t *testing.T) {
	// FNV-1a reference vectors.
	cases := []struct {
		in   string
		want uint64
	}{
		{"", 14695981039346656037},
		{"a", 0xaf63dc4c8601ec8c},
		{"foobar", 0x85944171f73967e8},
	}
	for _, c := range cases {
		if got := PageDigest([]byte(c.in)); got != c.want {
			t.Errorf("PageDigest(%q) = %#x, want %#x", c.in, got, c.want)
		}
	}
}

func TestPageDigestDistinguishesPayloads(t *testing.T) {
	a := []byte{1, 2, 3, 4, 5, 6, 7, 8}
	b := []byte{1, 2, 3, 4, 5, 6, 7, 9}
	if PageDigest(a) == PageDigest(b) {
		t.Fatal("single-bit payload change did not change the digest")
	}
	if PageDigest(a) != PageDigest(append([]byte(nil), a...)) {
		t.Fatal("digest is not a pure function of payload bytes")
	}
}

func TestMixDigestOrderAndPFNSensitive(t *testing.T) {
	da, db := PageDigest([]byte("aaaa")), PageDigest([]byte("bbbb"))
	ab := MixDigest(MixDigest(0, 1, da), 2, db)
	ba := MixDigest(MixDigest(0, 2, db), 1, da)
	if ab == ba {
		t.Fatal("rolling digest is order-insensitive; audit trail would miss reordering")
	}
	// Same payloads delivered to swapped PFNs must differ too.
	swapped := MixDigest(MixDigest(0, 2, da), 1, db)
	if ab == swapped {
		t.Fatal("rolling digest ignores which PFN received which payload")
	}
}

// fnv1aRef is the byte-at-a-time FNV-1a reference PageDigest must equal.
func fnv1aRef(payload []byte) uint64 {
	h := uint64(14695981039346656037)
	for _, b := range payload {
		h ^= uint64(b)
		h *= 1099511628211
	}
	return h
}

// TestPageDigestMatchesByteLoop checks the two-step short path against the
// reference: random 8-byte payloads with every count of leading zero bytes
// (only counts of six and more take the short path), the values around its
// 2^16 bound, and random and all-zero payloads of every length up to 16.
func TestPageDigestMatchesByteLoop(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	word := make([]byte, 8)
	check := func(b []byte) {
		t.Helper()
		if got, want := PageDigest(b), fnv1aRef(b); got != want {
			t.Fatalf("PageDigest(%x) = %#x, want %#x", b, got, want)
		}
	}
	for zeros := 0; zeros <= 8; zeros++ {
		for i := 0; i < 1000; i++ {
			var v uint64
			if zeros < 8 {
				// Exactly `zeros` leading zero bytes: the next byte's top
				// bit is set.
				v = rng.Uint64()>>(8*zeros) | 1<<(63-8*zeros)
			}
			binary.BigEndian.PutUint64(word, v)
			check(word)
		}
	}
	for _, v := range []uint64{0, 1, 0xff, 0x100, 1<<16 - 1, 1 << 16, 1<<16 + 1} {
		binary.BigEndian.PutUint64(word, v)
		check(word)
	}
	for n := 0; n <= 16; n++ {
		b := make([]byte, n)
		check(b)
		rng.Read(b)
		check(b)
	}
}

// TestPageDigestKernelPinned recomputes the payload of javmm-bench's
// kernel/mem/page-digest-8b at seed 1, whose digest every bench snapshot
// pins.
func TestPageDigestKernelPinned(t *testing.T) {
	word := make([]byte, 8)
	x := uint64(1)*0x9E3779B97F4A7C15 + 2
	for i := range word {
		x = x*6364136223846793005 + 1442695040888963407
		word[i] = byte(x >> 56)
	}
	if got := PageDigest(word); got != 8148461634897714036 {
		t.Fatalf("pinned 8-byte kernel digest = %d, want 8148461634897714036", got)
	}
}
