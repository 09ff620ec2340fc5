package mem

import "encoding/binary"

// Page content digests for end-to-end transfer integrity.
//
// Every page payload crossing the migration link carries an FNV-1a digest of
// its exported bytes; the destination recomputes the digest on receipt and
// keeps a per-PFN table plus a run-level rolling summary. The switchover
// audit compares the source's expectation against the destination's table,
// so a payload corrupted in flight (the corrupt-page-stream fault site, or a
// real-world bit flip) can never complete a migration silently.
//
// FNV-1a is used deliberately: it is dependency-free, deterministic across
// runs and platforms (the simulator's reproducibility contract), and cheap
// enough to compute inline on every transfer. It is an integrity check
// against accidental corruption, not a cryptographic MAC.

const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

// fnvSixZeros is the FNV-1a state after six zero bytes.
var fnvSixZeros = fnv1a(make([]byte, 6))

// PageDigest returns the FNV-1a 64-bit digest of a page payload as exported
// by a PageStore. It accepts any payload length, so it works for both the
// VersionStore's 8-byte version export and the ByteStore's full-page export.
//
// An 8-byte payload whose big-endian value is below 2^16 starts with six
// zero bytes, so its digest is the state after those six bytes followed by
// the last two steps. VersionStore payloads take this short path in
// practice (page versions stay far below 2^16); every other payload takes
// the byte loop. The result is bit-identical either way.
func PageDigest(payload []byte) uint64 {
	if len(payload) == 8 {
		if v := binary.BigEndian.Uint64(payload); v < 1<<16 {
			return ((fnvSixZeros^v>>8)*fnvPrime64 ^ v&0xff) * fnvPrime64
		}
	}
	return fnv1a(payload)
}

// fnv1a is the byte-at-a-time FNV-1a 64-bit hash.
func fnv1a(payload []byte) uint64 {
	h := uint64(fnvOffset64)
	for _, b := range payload {
		h ^= uint64(b)
		h *= fnvPrime64
	}
	return h
}

// MixDigest folds one per-page digest (tagged with its PFN so that swapped
// payloads still change the summary) into a run-level rolling digest. The
// mix is order-dependent, which is what an audit trail wants: the rolling
// value identifies the exact receive sequence, not just the final state.
func MixDigest(rolling uint64, p PFN, digest uint64) uint64 {
	h := rolling ^ (uint64(p) * fnvPrime64)
	h ^= digest
	h *= fnvPrime64
	return h
}
