package main

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
)

// Values are self-describing, so every read can be checked without a copy
// of the store:
//
//	[0:4]   CRC-32 (IEEE) of bytes [4:]
//	[4:12]  write sequence number, unique per generated value
//	[12:14] key length n
//	[14:14+n] the key the value was written under
//	rest    filler derived from the sequence number
const valueHeader = 14

// makeValue builds the size-byte value written as write number seq of key.
func makeValue(key string, seq uint64, size int) []byte {
	if min := valueHeader + len(key); size < min {
		size = min
	}
	v := make([]byte, size)
	binary.LittleEndian.PutUint64(v[4:], seq)
	binary.LittleEndian.PutUint16(v[12:], uint16(len(key)))
	n := valueHeader + copy(v[valueHeader:], key)
	x := seq*0x9e3779b97f4a7c15 + 1
	for ; n < size; n++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		v[n] = byte(x)
	}
	binary.LittleEndian.PutUint32(v, crc32.ChecksumIEEE(v[4:]))
	return v
}

var errCorrupt = errors.New("value checksum mismatch")

// checkValue verifies that v is intact and was written under key, and
// returns its write sequence number.
func checkValue(v []byte, key string) (uint64, error) {
	if len(v) < valueHeader {
		return 0, fmt.Errorf("value for %q is %d bytes, shorter than its header", key, len(v))
	}
	if crc32.ChecksumIEEE(v[4:]) != binary.LittleEndian.Uint32(v) {
		return 0, fmt.Errorf("value for %q: %w", key, errCorrupt)
	}
	n := int(binary.LittleEndian.Uint16(v[12:]))
	if valueHeader+n > len(v) {
		return 0, fmt.Errorf("value for %q: key length %d overruns %d bytes", key, n, len(v))
	}
	if got := string(v[valueHeader : valueHeader+n]); got != key {
		return 0, fmt.Errorf("value for %q was written under %q", key, got)
	}
	return binary.LittleEndian.Uint64(v[4:]), nil
}
