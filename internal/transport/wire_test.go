package transport

import (
	"bytes"
	"errors"
	"io"
	"net"
	"reflect"
	"testing"
	"time"

	"sprout/internal/objstore"
)

// TestWireOpcodes pins the byte value of every live op — the wire format of
// each stays what it is whatever else is added or retired — and checks that
// a frame carrying a retired op number is answered with codeUnknownOp.
func TestWireOpcodes(t *testing.T) {
	for _, c := range []struct {
		op   Op
		want byte
	}{
		{OpGetChunk, 3},
		{OpPools, 5},
		{OpBeginPut, 10},
		{OpPutChunk, 11},
		{OpCommitObject, 12},
		{OpAbortPut, 13},
		{OpPoolInfo, 14},
		{OpCtrlRead, 15},
		{OpCtrlWrite, 16},
		{OpInvalidate, 17},
		{OpShardInfo, 18},
	} {
		if byte(c.op) != c.want {
			t.Errorf("%v = %d, want %d", c.op, byte(c.op), c.want)
		}
	}

	srv := NewServer(testClusterWithService(t, 0.0001))
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = srv.Close() })
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	_ = conn.SetDeadline(time.Now().Add(5 * time.Second))
	// Each retired number as its old callers framed it, plus Pools as the
	// live control.
	reqs := []Request{
		{ID: 1, Op: 1, Pool: "data", Object: "obj", Data: []byte("whole object")},
		{ID: 2, Op: 2, Pool: "data", Object: "obj"},
		{ID: 4, Op: 4, Pool: "data"},
		{ID: 5, Op: OpPools},
		{ID: 6, Op: 6, Pool: "data", Object: "obj", Chunk: 1},
		{ID: 7, Op: 7},
		{ID: 8, Op: 8, Chunk: 2, Data: []byte{1}},
		{ID: 9, Op: 9, Chunk: 2},
	}
	var frames []byte
	for i := range reqs {
		frames = appendRequest(frames, &reqs[i])
	}
	if _, err := conn.Write(frames); err != nil {
		t.Fatal(err)
	}
	fr := newFrameReader(conn)
	codes := make(map[uint64]byte)
	for range reqs {
		resp, err := readResponse(fr)
		if err != nil {
			t.Fatal(err)
		}
		codes[resp.ID] = resp.Code
	}
	for _, req := range reqs {
		want := codeUnknownOp
		if req.Op == OpPools {
			want = codeOK
		}
		if got, ok := codes[req.ID]; !ok || got != want {
			t.Errorf("op %d: answered %d (present %v), want %d", byte(req.Op), got, ok, want)
		}
	}
}

func TestRequestCodecRoundTrip(t *testing.T) {
	cases := []Request{
		{ID: 1, Op: OpPutChunk, Pool: "data", Object: "obj", Version: 3, Data: []byte("payload")},
		{ID: 1<<63 + 7, Op: OpGetChunk, Pool: "p", Object: "o", Chunk: 42},
		{ID: 0, Op: OpPoolInfo, Pool: "pool-with-longer-name"},
		{ID: 3, Op: OpPools},
		{ID: 4, Op: OpBeginPut, Pool: "", Object: "", Data: nil},
		{ID: 5, Op: OpGetChunk, Chunk: -1},
	}
	for _, want := range cases {
		frame := appendRequest(nil, &want)
		payload, err := readFrame(bytes.NewReader(frame), DefaultMaxFrameSize)
		if err != nil {
			t.Fatalf("readFrame(%+v): %v", want, err)
		}
		got, err := decodeRequest(payload, nil)
		if err != nil {
			t.Fatalf("decodeRequest(%+v): %v", want, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("request round trip: got %+v, want %+v", got, want)
		}
	}
}

func TestResponseCodecRoundTrip(t *testing.T) {
	cases := []Response{
		{ID: 9, Code: codeOK, Data: []byte{1, 2, 3}, Latency: 1500 * time.Microsecond},
		{ID: 10, Code: codeObjectNotFound, Err: "objstore: object not found: x"},
		{ID: 11, Code: codeOK, Names: []string{"a", "bb", ""}},
		{ID: 12, Code: codeOverloaded, Err: "transport: server overloaded"},
		{ID: 13, Code: codeOK},
	}
	for _, want := range cases {
		frame := appendResponse(nil, &want)
		payload, err := readFrame(bytes.NewReader(frame), DefaultMaxFrameSize)
		if err != nil {
			t.Fatalf("readFrame(%+v): %v", want, err)
		}
		got, err := decodeResponse(payload)
		if err != nil {
			t.Fatalf("decodeResponse(%+v): %v", want, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("response round trip: got %+v, want %+v", got, want)
		}
	}
}

func TestAppendExtendsExistingBuffer(t *testing.T) {
	req := Request{ID: 2, Op: OpGetChunk, Pool: "p", Object: "o"}
	prefix := []byte("prefix")
	frame := appendRequest(append([]byte(nil), prefix...), &req)
	if !bytes.HasPrefix(frame, prefix) {
		t.Fatal("appendRequest clobbered existing buffer contents")
	}
	payload, err := readFrame(bytes.NewReader(frame[len(prefix):]), DefaultMaxFrameSize)
	if err != nil {
		t.Fatal(err)
	}
	if got, err := decodeRequest(payload, nil); err != nil || got.Pool != "p" {
		t.Fatalf("decode after prefixed append: %+v, %v", got, err)
	}
}

func TestReadFrameLimits(t *testing.T) {
	req := Request{ID: 1, Op: OpPutChunk, Data: make([]byte, 1024)}
	frame := appendRequest(nil, &req)
	if _, err := readFrame(bytes.NewReader(frame), 64); err == nil {
		t.Fatal("oversized frame accepted")
	}
	if _, err := readFrame(bytes.NewReader([]byte{0, 0, 0, 0}), DefaultMaxFrameSize); err == nil {
		t.Fatal("zero-length frame accepted")
	}
	if _, err := readFrame(bytes.NewReader(frame[:len(frame)-3]), DefaultMaxFrameSize); !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("truncated frame: want ErrUnexpectedEOF, got %v", err)
	}
}

func TestDecodeMalformedFrames(t *testing.T) {
	req := Request{ID: 1, Op: OpPutChunk, Pool: "data", Object: "o", Data: []byte("abc")}
	frame := appendRequest(nil, &req)
	payload := frame[4:]
	if _, err := decodeRequest(payload[:5], nil); err == nil {
		t.Fatal("truncated request payload accepted")
	}
	if _, err := decodeResponse(payload); err == nil {
		t.Fatal("request payload accepted as response")
	}
	resp := Response{ID: 1, Code: codeOK, Data: []byte("abc")}
	rframe := appendResponse(nil, &resp)
	if _, err := decodeRequest(rframe[4:], nil); err == nil {
		t.Fatal("response payload accepted as request")
	}
	// Trailing garbage must be rejected, not silently ignored.
	if _, err := decodeRequest(append(append([]byte(nil), payload...), 0xFF), nil); err == nil {
		t.Fatal("trailing bytes accepted")
	}
}

func TestErrorFromResponseSentinels(t *testing.T) {
	cases := []struct {
		code byte
		want error
	}{
		{codeObjectNotFound, objstore.ErrObjectNotFound},
		{codePoolNotFound, objstore.ErrPoolNotFound},
		{codeChunkMissing, objstore.ErrChunkMissing},
		{codeOverloaded, ErrOverloaded},
	}
	for _, c := range cases {
		resp := Response{Code: c.code, Err: "remote detail"}
		err := errorFromResponse(&resp)
		if !errors.Is(err, c.want) {
			t.Fatalf("code %d: errors.Is(%v, %v) = false", c.code, err, c.want)
		}
		if err.Error() != "remote detail" {
			t.Fatalf("code %d: message lost: %q", c.code, err.Error())
		}
	}
	if err := errorFromResponse(&Response{Code: codeError, Err: "plain"}); err == nil || err.Error() != "plain" {
		t.Fatalf("generic error mangled: %v", err)
	}
}

func TestCodeForErrorMapping(t *testing.T) {
	cases := []struct {
		err  error
		want byte
	}{
		{objstore.ErrObjectNotFound, codeObjectNotFound},
		{objstore.ErrPoolNotFound, codePoolNotFound},
		{objstore.ErrChunkMissing, codeChunkMissing},
		{errors.New("anything else"), codeError},
	}
	for _, c := range cases {
		if got := codeForError(c.err); got != c.want {
			t.Fatalf("codeForError(%v) = %d, want %d", c.err, got, c.want)
		}
	}
}
