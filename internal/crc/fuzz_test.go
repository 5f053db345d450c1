package crc

import "testing"

// bitwise64 is the definitional reflected CRC64: one bit at a time, no
// tables, with the same pre-/post-inversion convention as Update64. The
// slicing-by-8 fast path must match it exactly.
func bitwise64(poly uint64, data []byte) uint64 {
	crc := ^uint64(0)
	for _, b := range data {
		crc ^= uint64(b)
		for i := 0; i < 8; i++ {
			if crc&1 == 1 {
				crc = (crc >> 1) ^ poly
			} else {
				crc >>= 1
			}
		}
	}
	return ^crc
}

// bitwise32 is the definitional reflected CRC32.
func bitwise32(poly uint32, data []byte) uint32 {
	crc := ^uint32(0)
	for _, b := range data {
		crc ^= uint32(b)
		for i := 0; i < 8; i++ {
			if crc&1 == 1 {
				crc = (crc >> 1) ^ poly
			} else {
				crc >>= 1
			}
		}
	}
	return ^crc
}

// FuzzCRCSlicingEquivalence pins the CRC implementations to each other
// on arbitrary input: the bitwise reference, the byte-at-a-time table
// walk (Update with a freshly built table, which cannot take a fast
// path), the slicing-by-8 fast path behind Checksum64 and the hash/crc32
// path behind Checksum32. Streaming in two chunks at every split point
// must also agree — slicing-by-8 handles the sub-8-byte head and tail
// separately, so splits are where an indexing bug would hide.
func FuzzCRCSlicingEquivalence(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0x00})
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF})
	f.Add([]byte("123456789"))
	seed := make([]byte, 64)
	for i := range seed {
		seed[i] = byte(i*73 + 11)
	}
	f.Add(seed)
	genericTab64 := MakeTable64(Poly64)
	genericTab32 := MakeTable32(Poly32)
	f.Fuzz(func(t *testing.T, data []byte) {
		want64 := bitwise64(Poly64, data)
		if got := Checksum64(data); got != want64 {
			t.Fatalf("Checksum64 (slicing) = %#x, bitwise reference = %#x", got, want64)
		}
		if got := Update64(0, genericTab64, data); got != want64 {
			t.Fatalf("Update64 (generic table) = %#x, bitwise reference = %#x", got, want64)
		}
		want32 := bitwise32(Poly32, data)
		if got := Checksum32(data); got != want32 {
			t.Fatalf("Checksum32 (hash/crc32) = %#x, bitwise reference = %#x", got, want32)
		}
		if got := Update32(0, genericTab32, data); got != want32 {
			t.Fatalf("Update32 (generic table) = %#x, bitwise reference = %#x", got, want32)
		}
		// Streaming equivalence across split points, via the Digest64
		// wrapper (which stays on the slicing path across the boundary)
		// and Update32 on the package IEEE table. Exhaustive on short
		// inputs; spot-checked on long ones to keep the fuzz loop fast.
		splits := len(data)
		if splits > 128 {
			splits = 128
		}
		check := func(k int) {
			d := NewDigest64()
			d.Write(data[:k])
			d.Write(data[k:])
			if d.Sum64() != want64 {
				t.Fatalf("Digest64 split at %d = %#x, want %#x", k, d.Sum64(), want64)
			}
			if got := Update32(Update32(0, ieeeTable, data[:k]), ieeeTable, data[k:]); got != want32 {
				t.Fatalf("Update32 split at %d = %#x, want %#x", k, got, want32)
			}
		}
		for k := 0; k <= splits; k++ {
			check(k)
		}
		if len(data) > 128 {
			check(len(data) / 2)
			check(len(data) - 1)
		}
	})
}
