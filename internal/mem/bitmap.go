package mem

import "math/bits"

// Bitmap is a fixed-size bitset indexed by PFN. Both the hypervisor's dirty
// bitmap and the guest kernel's transfer bitmap (paper §3.3.3) are Bitmaps:
// one bit per VM memory page, so 32 KiB of bitmap per GiB of VM memory.
//
// The zero value is not usable; create Bitmaps with NewBitmap.
type Bitmap struct {
	words []uint64
	n     uint64 // number of valid bits
}

// NewBitmap returns a bitmap covering n pages, all bits cleared.
func NewBitmap(n uint64) *Bitmap {
	return &Bitmap{words: make([]uint64, (n+63)/64), n: n}
}

// Len returns the number of bits (pages) the bitmap covers.
func (b *Bitmap) Len() uint64 { return b.n }

// Set sets the bit for p. Out-of-range PFNs panic: a PFN beyond the VM's
// memory indicates a page-table walk bug, which must not be masked.
func (b *Bitmap) Set(p PFN) {
	b.check(p)
	b.words[p>>6] |= 1 << (p & 63)
}

// Clear clears the bit for p.
func (b *Bitmap) Clear(p PFN) {
	b.check(p)
	b.words[p>>6] &^= 1 << (p & 63)
}

// Test reports whether the bit for p is set.
func (b *Bitmap) Test(p PFN) bool {
	b.check(p)
	return b.words[p>>6]&(1<<(p&63)) != 0
}

// SetEach sets the bit of every PFN in ps and returns how many of them were
// clear before: the same result and count as Test-then-Set per PFN. The loop
// is branch-free, so the loads of independent words overlap.
func (b *Bitmap) SetEach(ps []PFN) (added uint64) {
	for _, p := range ps {
		b.check(p)
		w, bit := &b.words[p>>6], p&63
		added += (^*w >> bit) & 1
		*w |= 1 << bit
	}
	return added
}

func (b *Bitmap) check(p PFN) {
	if uint64(p) >= b.n {
		panic("mem: bitmap index out of range")
	}
}

// SetAll sets every valid bit. The transfer bitmap is initialized with all
// bits set: by default every dirty page is transferred (paper §3.3.4).
func (b *Bitmap) SetAll() {
	for i := range b.words {
		b.words[i] = ^uint64(0)
	}
	b.trim()
}

// ClearAll clears every bit.
func (b *Bitmap) ClearAll() {
	for i := range b.words {
		b.words[i] = 0
	}
}

// trim zeroes the unused high bits of the last word so popcounts stay exact.
func (b *Bitmap) trim() {
	if rem := b.n & 63; rem != 0 && len(b.words) > 0 {
		b.words[len(b.words)-1] &= (1 << rem) - 1
	}
}

// Count returns the number of set bits.
func (b *Bitmap) Count() uint64 {
	var c uint64
	for _, w := range b.words {
		c += uint64(bits.OnesCount64(w))
	}
	return c
}

// Clone returns a deep copy.
func (b *Bitmap) Clone() *Bitmap {
	out := &Bitmap{words: make([]uint64, len(b.words)), n: b.n}
	copy(out.words, b.words)
	return out
}

// CopyFrom overwrites b with src. The bitmaps must be the same length.
func (b *Bitmap) CopyFrom(src *Bitmap) {
	if b.n != src.n {
		panic("mem: CopyFrom length mismatch")
	}
	copy(b.words, src.words)
}

// And intersects b with o in place (b &= o).
func (b *Bitmap) And(o *Bitmap) {
	if b.n != o.n {
		panic("mem: And length mismatch")
	}
	for i := range b.words {
		b.words[i] &= o.words[i]
	}
}

// AndNot removes o's set bits from b in place (b &^= o).
func (b *Bitmap) AndNot(o *Bitmap) {
	if b.n != o.n {
		panic("mem: AndNot length mismatch")
	}
	for i := range b.words {
		b.words[i] &^= o.words[i]
	}
}

// Or unions o into b in place (b |= o).
func (b *Bitmap) Or(o *Bitmap) {
	if b.n != o.n {
		panic("mem: Or length mismatch")
	}
	for i := range b.words {
		b.words[i] |= o.words[i]
	}
}

// Range calls fn for every set bit in ascending PFN order. If fn returns
// false, iteration stops.
func (b *Bitmap) Range(fn func(p PFN) bool) {
	for wi, w := range b.words {
		for w != 0 {
			bit := bits.TrailingZeros64(w)
			if !fn(PFN(wi*64 + bit)) {
				return
			}
			w &= w - 1
		}
	}
}

// NextSet returns the first set bit at or after p, or NoPFN if none.
func (b *Bitmap) NextSet(p PFN) PFN {
	if uint64(p) >= b.n {
		return NoPFN
	}
	wi := int(p >> 6)
	w := b.words[wi] >> (p & 63) << (p & 63) // mask bits below p
	for {
		if w != 0 {
			return PFN(wi*64 + bits.TrailingZeros64(w))
		}
		wi++
		if wi >= len(b.words) {
			return NoPFN
		}
		w = b.words[wi]
	}
}
