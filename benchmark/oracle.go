package main

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math/rand"
	"sync/atomic"
)

// Every object payload is a 16-byte header (magic, fileID, seq, crc32 of the
// body) followed by a body chosen by (seed, fileID, seq) from a small set of
// random bodies made before the phase starts. seq counts the overwrites of
// one file; the oracle remembers the last seq committed per file, so a read
// can be checked for staleness as well as for corruption.
const (
	headerLen   = 16
	payloadTag  = 0x54525053 // "SPRT"
	oracleBodys = 8
	// fullCheckEvery: one read in this many (by operation index) also
	// recomputes the body CRC; the others check the header only.
	fullCheckEvery = 64
)

var (
	errShort   = errors.New("oracle: payload has the wrong length")
	errForeign = errors.New("oracle: header is not of the requested file")
	errStale   = errors.New("oracle: read returned a seq older than the last one committed before it was issued")
	errFuture  = errors.New("oracle: read returned a seq no write has started")
	errTorn    = errors.New("oracle: body does not match its header")
)

type oracle struct {
	seed   uint64
	size   int
	bodies [oracleBodys][]byte
	crcs   [oracleBodys]uint32
	// started[f] is the highest seq a write of file f has begun with,
	// committed[f] the highest that has returned success. Each file has one
	// writer, so both only grow.
	started   []atomic.Uint32
	committed []atomic.Uint32
}

func newOracle(seed int64, files, size int) *oracle {
	o := &oracle{
		seed:      uint64(seed),
		size:      size,
		started:   make([]atomic.Uint32, files),
		committed: make([]atomic.Uint32, files),
	}
	rng := rand.New(rand.NewSource(seed ^ 0x6f7261636c65))
	for i := range o.bodies {
		o.bodies[i] = make([]byte, size-headerLen)
		rng.Read(o.bodies[i])
		o.crcs[i] = crc32.ChecksumIEEE(o.bodies[i])
	}
	return o
}

// bodyIndex is a splitmix64 step over (seed, file, seq).
func (o *oracle) bodyIndex(file int, seq uint32) int {
	z := o.seed + uint64(file)<<32 + uint64(seq) + 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return int((z ^ (z >> 31)) % oracleBodys)
}

// stamp writes the payload of (file, seq) into dst, which must be o.size
// long.
func (o *oracle) stamp(dst []byte, file int, seq uint32) {
	idx := o.bodyIndex(file, seq)
	binary.LittleEndian.PutUint32(dst[0:], payloadTag)
	binary.LittleEndian.PutUint32(dst[4:], uint32(file))
	binary.LittleEndian.PutUint32(dst[8:], seq)
	binary.LittleEndian.PutUint32(dst[12:], o.crcs[idx])
	copy(dst[headerLen:], o.bodies[idx])
}

// beginWrite returns the seq of the next overwrite of file and records that
// it has started. Only the file's single writer calls it.
func (o *oracle) beginWrite(file int) uint32 {
	return o.started[file].Add(1)
}

func (o *oracle) commitWrite(file int, seq uint32) {
	o.committed[file].Store(seq)
}

// floor is the seq a read of file issued now must at least return.
func (o *oracle) floor(file int) uint32 { return o.committed[file].Load() }

// check verifies what a read of file returned. floor is o.floor(file) taken
// before the read was issued. full also recomputes the body CRC.
func (o *oracle) check(file int, floor uint32, got []byte, full bool) error {
	if len(got) != o.size {
		return fmt.Errorf("%w: %d bytes, want %d", errShort, len(got), o.size)
	}
	if binary.LittleEndian.Uint32(got[0:]) != payloadTag || binary.LittleEndian.Uint32(got[4:]) != uint32(file) {
		return errForeign
	}
	seq := binary.LittleEndian.Uint32(got[8:])
	if seq < floor {
		return fmt.Errorf("%w: seq %d < %d", errStale, seq, floor)
	}
	if seq > o.started[file].Load() {
		return fmt.Errorf("%w: seq %d", errFuture, seq)
	}
	crc := binary.LittleEndian.Uint32(got[12:])
	if crc != o.crcs[o.bodyIndex(file, seq)] {
		return fmt.Errorf("%w: header crc is not that of (file %d, seq %d)", errTorn, file, seq)
	}
	if full && crc32.ChecksumIEEE(got[headerLen:]) != crc {
		return fmt.Errorf("%w: body crc of (file %d, seq %d)", errTorn, file, seq)
	}
	return nil
}
