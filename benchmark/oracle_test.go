package main

import (
	"errors"
	"testing"
)

func TestOracleAcceptsWhatItWrote(t *testing.T) {
	or := newOracle(7, 4, 4096)
	buf := make([]byte, 4096)
	or.stamp(buf, 2, 0)
	if err := or.check(2, 0, buf, true); err != nil {
		t.Fatalf("fresh payload rejected: %v", err)
	}
	seq := or.beginWrite(2)
	or.stamp(buf, 2, seq)
	// A read that overlaps the write may already return it.
	if err := or.check(2, or.floor(2), buf, true); err != nil {
		t.Fatalf("payload of a started write rejected: %v", err)
	}
	or.commitWrite(2, seq)
	if err := or.check(2, or.floor(2), buf, true); err != nil {
		t.Fatalf("committed payload rejected: %v", err)
	}
}

func TestOracleRejectsStale(t *testing.T) {
	or := newOracle(7, 4, 4096)
	old := make([]byte, 4096)
	or.stamp(old, 1, 0)
	seq := or.beginWrite(1)
	or.commitWrite(1, seq)
	// The read was issued after seq 1 committed and still got seq 0.
	if err := or.check(1, or.floor(1), old, false); !errors.Is(err, errStale) {
		t.Fatalf("stale payload: got %v, want errStale", err)
	}
	// The same bytes are fine for a read issued before the commit.
	if err := or.check(1, 0, old, true); err != nil {
		t.Fatalf("payload read before the overwrite rejected: %v", err)
	}
}

func TestOracleRejectsTorn(t *testing.T) {
	or := newOracle(7, 4, 4096)
	// Find two seqs of file 0 whose bodies differ.
	other := uint32(1)
	for or.bodyIndex(0, other) == or.bodyIndex(0, 0) {
		other++
	}
	for s := uint32(0); s < other; s++ {
		or.beginWrite(0)
	}
	a, b := make([]byte, 4096), make([]byte, 4096)
	or.stamp(a, 0, 0)
	or.stamp(b, 0, other)

	// Mixed stripe: the first half of one version, the second of the other.
	// The header is intact, so only the full check can see it.
	torn := append(append([]byte(nil), b[:2048]...), a[2048:]...)
	if err := or.check(0, 0, torn, false); err != nil {
		t.Fatalf("header-only check of a torn body: %v", err)
	}
	if err := or.check(0, 0, torn, true); !errors.Is(err, errTorn) {
		t.Fatalf("torn body: got %v, want errTorn", err)
	}

	// Header of one version on the body of the other: the header's crc is
	// not the one (file, seq) must carry, which every read checks.
	swapped := append(append([]byte(nil), b[:headerLen]...), a[headerLen:]...)
	swapped[12] ^= 0xff
	if err := or.check(0, 0, swapped, false); !errors.Is(err, errTorn) {
		t.Fatalf("forged header crc: got %v, want errTorn", err)
	}

	if err := or.check(1, 0, a, false); !errors.Is(err, errForeign) {
		t.Fatalf("payload of another file: got %v, want errForeign", err)
	}
	if err := or.check(0, 0, a[:100], false); !errors.Is(err, errShort) {
		t.Fatalf("short payload: got %v, want errShort", err)
	}
	or.stamp(a, 0, other+5)
	if err := or.check(0, 0, a, false); !errors.Is(err, errFuture) {
		t.Fatalf("seq nobody wrote: got %v, want errFuture", err)
	}
}
