package main

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
)

// bulkSize is the size of a bulk payload.
const bulkSize = 1024

// payloads makes and checks the values the workloads send. Every value
// encodes a (sender, seq) pair: as an int, or as a 1 KiB []byte whose
// first 8 bytes hold the pair and whose rest is a seeded fill that
// depends on the pair, so a corrupted, swapped or stale payload shows.
type payloads struct {
	fill [2 * bulkSize]byte
}

func newPayloads(seed int64) *payloads {
	p := &payloads{}
	rand.New(rand.NewSource(seed)).Read(p.fill[:])
	return p
}

func encode(sender, seq int) int64 { return int64(sender)<<32 | int64(seq) }

func decodePair(x int64) (sender, seq int) { return int(x >> 32), int(x & 0xffffffff) }

func (p *payloads) fillFor(x int64) []byte {
	off := int(uint64(x)*0x9e3779b97f4a7c15>>54) % bulkSize
	return p.fill[off : off+bulkSize-8]
}

// value returns the value for x: the int itself, or a fresh bulk payload.
func (p *payloads) value(x int64, bulk bool) any {
	if !bulk {
		return int(x)
	}
	b := make([]byte, bulkSize)
	binary.LittleEndian.PutUint64(b, uint64(x))
	copy(b[8:], p.fillFor(x))
	return b
}

// decode returns the pair a value encodes, checking a bulk payload's fill.
func (p *payloads) decode(v any) (int64, error) {
	switch v := v.(type) {
	case int:
		return int64(v), nil
	case []byte:
		if len(v) != bulkSize {
			return 0, fmt.Errorf("bulk payload of %d bytes, want %d", len(v), bulkSize)
		}
		x := int64(binary.LittleEndian.Uint64(v))
		if !bytes.Equal(v[8:], p.fillFor(x)) {
			return 0, fmt.Errorf("bulk payload %#x: fill does not match its seeded pattern", x)
		}
		return x, nil
	}
	return 0, fmt.Errorf("unexpected value %v of type %T", v, v)
}
