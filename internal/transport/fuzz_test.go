package transport

import (
	"bytes"
	"testing"
	"time"
)

// body strips the 4-byte length prefix from an encoded frame, leaving the
// payload the decoders operate on.
func body(frame []byte) []byte { return frame[4:] }

// FuzzDecodeFrame feeds arbitrary frame payloads through the request decoder
// and, streamed from a bytes.Reader, the client's header-first response
// reader: they must never panic, and whenever a payload decodes
// successfully, re-encoding it must reproduce the payload byte for byte
// (so decode and encode agree on the wire format).
func FuzzDecodeFrame(f *testing.F) {
	// Valid request frames across every op number, including the ingest
	// plane's staged-write ops with stripe versions and the retired numbers
	// (which still decode: only a server refuses them).
	for _, req := range []Request{
		{ID: 1, Op: Op(1), Pool: "ec", Object: "obj-1", Data: []byte("payload")},
		{ID: 2, Op: Op(2), Pool: "ec", Object: "obj-1"},
		{ID: 3, Op: OpGetChunk, Pool: "ec", Object: "obj-1", Chunk: 5},
		{ID: 4, Op: Op(4), Pool: "ec"},
		{ID: 5, Op: OpPools},
		{ID: 6, Op: Op(6), Pool: "ec", Object: "obj-1", Chunk: 2},
		{ID: 7, Op: Op(7)},
		{ID: 8, Op: Op(8), Chunk: 3, Data: []byte{1}},
		{ID: 9, Op: Op(9), Chunk: 3},
		{ID: 10, Op: OpGetChunk, Pool: "", Object: "", Chunk: -1},
		{ID: 11, Op: OpBeginPut, Pool: "ec", Object: "obj-1"},
		{ID: 12, Op: OpPutChunk, Pool: "ec", Object: "obj-1", Version: 7, Chunk: 4, Data: []byte("coded-chunk")},
		{ID: 13, Op: OpCommitObject, Pool: "ec", Object: "obj-1", Version: 7, Data: []byte{0, 0, 0, 0, 0, 0, 16, 0}},
		{ID: 14, Op: OpAbortPut, Pool: "ec", Object: "obj-1", Version: 7},
		{ID: 15, Op: OpPoolInfo, Pool: "ec"},
		{ID: 16, Op: OpPutChunk, Pool: "ec", Object: "obj-1", Version: ^uint64(0), Chunk: -1},
		{ID: 17, Op: OpGetChunk, Pool: "ec", Object: "obj-1", Chunk: 2, Deadline: 1_700_000_000_000_000_000},
		{ID: 18, Op: Op(2), Pool: "ec", Object: "obj-1", Deadline: ^uint64(0)},
		{ID: 19, Op: Op(1), Pool: "ec", Object: "obj-1", Deadline: 1, Data: []byte("expired")},
	} {
		req := req
		f.Add(body(appendRequest(nil, &req)))
	}
	// Valid response frames: success, typed errors, names, data, and
	// version/size-bearing chunk reads.
	for _, resp := range []Response{
		{ID: 1, Code: codeOK, Data: []byte("chunk-bytes"), Latency: 42 * time.Microsecond},
		{ID: 2, Code: codeObjectNotFound, Err: "objstore: object not found"},
		{ID: 3, Code: codeOK, Names: []string{"ec-7-4", "eq-0", "eq-1"}},
		{ID: 4, Code: codeOverloaded, Err: "transport: server overloaded"},
		{ID: 5, Code: codeOSDDown, Err: "objstore: osd down"},
		{ID: 6, Code: codeOK},
		{ID: 7, Code: codeOK, Version: 9, Size: 1 << 20, Data: []byte("versioned-chunk")},
		{ID: 8, Code: codeOK, Version: 3},
		{ID: 9, Code: codeNoStagedPut, Err: "objstore: no staged put for object version"},
		{ID: 10, Code: codeOK, Version: ^uint64(0), Size: -1},
		{ID: 11, Code: codeDeadlineExceeded, Err: "context deadline exceeded"},
	} {
		resp := resp
		f.Add(body(appendResponse(nil, &resp)))
	}
	// Truncated frames: prefixes of a representative request and response
	// exercise every field boundary.
	req := Request{ID: 99, Op: Op(1), Pool: "pool", Object: "object", Data: []byte("data")}
	for b := body(appendRequest(nil, &req)); len(b) > 0; b = b[:len(b)-3] {
		f.Add(append([]byte(nil), b...))
		if len(b) < 3 {
			break
		}
	}
	resp := Response{ID: 99, Code: codeOK, Err: "e", Names: []string{"a", "b"}, Data: []byte("data")}
	for b := body(appendResponse(nil, &resp)); len(b) > 0; b = b[:len(b)-3] {
		f.Add(append([]byte(nil), b...))
		if len(b) < 3 {
			break
		}
	}
	// Wrong-kind and garbage payloads.
	f.Add([]byte{})
	f.Add([]byte{0xff})
	f.Add([]byte{frameRequest})
	f.Add([]byte{frameResponse})
	f.Add(bytes.Repeat([]byte{0xaa}, 64))

	f.Fuzz(func(t *testing.T, payload []byte) {
		if req, err := decodeRequest(payload, nil); err == nil {
			if re := body(appendRequest(nil, &req)); !bytes.Equal(re, payload) {
				t.Fatalf("request round trip mismatch:\n in: %x\nout: %x", payload, re)
			}
		}
		if resp, err := decodeResponse(payload); err == nil {
			if re := body(appendResponse(nil, &resp)); !bytes.Equal(re, payload) {
				t.Fatalf("response round trip mismatch:\n in: %x\nout: %x", payload, re)
			}
		}
	})
}
