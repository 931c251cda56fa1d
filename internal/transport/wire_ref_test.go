package transport

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"testing"
	"time"
)

// appendRequest and appendResponse are the contiguous frame encoders the
// write loops used before frames were gathered into vectors. They are kept
// here, unchanged, as the reference the vectored path is compared against
// (TestVectoredWireGolden) and as the encoder the codec and fuzz tests
// build their inputs with.

// appendRequest encodes req as a complete frame (length prefix included).
func appendRequest(buf []byte, req *Request) []byte {
	payload := requestOverhead + len(req.Pool) + len(req.Object) + len(req.Tenant) + len(req.Data)
	buf = append(buf, 0, 0, 0, 0)
	binary.BigEndian.PutUint32(buf[len(buf)-4:], uint32(payload))
	buf = append(buf, frameRequest)
	buf = binary.BigEndian.AppendUint64(buf, req.ID)
	buf = append(buf, byte(req.Op))
	buf = binary.BigEndian.AppendUint32(buf, uint32(req.Chunk))
	buf = binary.BigEndian.AppendUint64(buf, req.Version)
	buf = binary.BigEndian.AppendUint64(buf, req.Deadline)
	buf = appendString16(buf, req.Pool)
	buf = appendString16(buf, req.Object)
	buf = appendString16(buf, req.Tenant)
	buf = binary.BigEndian.AppendUint32(buf, uint32(len(req.Data)))
	return append(buf, req.Data...)
}

// appendResponse encodes resp as a complete frame (length prefix included).
func appendResponse(buf []byte, resp *Response) []byte {
	if len(resp.Err) > maxString16 {
		resp.Err = resp.Err[:maxString16]
	}
	payload := responseOverhead + len(resp.Err) + len(resp.Data)
	for _, n := range resp.Names {
		payload += 2 + len(n)
	}
	buf = append(buf, 0, 0, 0, 0)
	binary.BigEndian.PutUint32(buf[len(buf)-4:], uint32(payload))
	buf = append(buf, frameResponse)
	buf = binary.BigEndian.AppendUint64(buf, resp.ID)
	buf = append(buf, resp.Code)
	buf = binary.BigEndian.AppendUint64(buf, uint64(resp.Latency))
	buf = binary.BigEndian.AppendUint64(buf, resp.Version)
	buf = binary.BigEndian.AppendUint64(buf, uint64(resp.Size))
	buf = appendString16(buf, resp.Err)
	buf = binary.BigEndian.AppendUint16(buf, uint16(len(resp.Names)))
	for _, n := range resp.Names {
		buf = appendString16(buf, n)
	}
	buf = binary.BigEndian.AppendUint32(buf, uint32(len(resp.Data)))
	return append(buf, resp.Data...)
}

// readFrame reads one frame from r the way the connection read loops do.
func readFrame(r io.Reader, maxSize int) ([]byte, error) {
	return newFrameReader(r).next(maxSize)
}

// readResponse reads one response frame from fr the way the client's read
// loop does — header first, then the data field, here into a fresh buffer.
func readResponse(fr *frameReader) (Response, error) {
	resp, n, err := fr.responseHeader(DefaultMaxFrameSize)
	if err != nil {
		return resp, err
	}
	resp.Data, err = fr.data(n, nil)
	return resp, err
}

// decodeResponse decodes one response frame payload by streaming it, length
// prefix restored, through readResponse from a bytes.Reader.
func decodeResponse(payload []byte) (Response, error) {
	frame := binary.BigEndian.AppendUint32(nil, uint32(len(payload)))
	return readResponse(newFrameReader(bytes.NewReader(append(frame, payload...))))
}

// goldenSizes are the payload sizes on either side of every branch of the
// vectored path: empty, tiny, around the by-reference threshold, and larger
// than the batch buffer.
var goldenSizes = []int{0, 1, byRefMin - 1, byRefMin, byRefMin + 1, 1 << 20}

func patterned(n int, salt byte) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = byte(i*7) ^ salt
	}
	return b
}

// TestVectoredWireGolden holds the wire format still: for every op and every
// payload size class, what a frameBatch puts on the wire is byte for byte
// the contiguous encoding — frame by frame, gathered into one batch, and
// when the encode buffer has to grow in the middle of a batch.
func TestVectoredWireGolden(t *testing.T) {
	var reqs []Request
	var resps []Response
	// Every payload is a window into one patterned buffer, at an offset of
	// its own so that no two cases carry the same bytes.
	base := patterned(1<<20+64, 0)
	for op := Op(1); op <= OpShardInfo; op++ {
		for _, size := range goldenSizes {
			reqs = append(reqs, Request{
				ID: uint64(op)<<32 | uint64(size), Op: op, Chunk: int(op) - 3, Version: uint64(size) + 1,
				Deadline: 1_700_000_000_000_000_000, Pool: "ec-7-4", Object: fmt.Sprintf("file-%04d", size%10000),
				Tenant: "gold", Data: base[int(op):][:size],
			})
			resps = append(resps, Response{
				ID: uint64(op)<<32 | uint64(size), Code: byte(size % 10), Version: uint64(op), Size: int64(size),
				Err: "e", Names: []string{"a", "", "ccc"}, Data: base[32+int(op):][:size],
				Latency: time.Duration(size) * time.Microsecond,
			})
		}
	}
	var ctr transportCounters
	var wantAll, gotAll bytes.Buffer
	var wantBytes, wantByRef int64
	all := frameBatch{enc: make([]byte, 0, batchBufSize), ctr: &ctr}
	growing := frameBatch{ctr: new(transportCounters)} // nil buffer: grows on nearly every frame
	for i := range reqs {
		for _, pair := range []struct {
			want    []byte
			add     func(*frameBatch)
			data    []byte
			encoded int
		}{
			{appendRequest(nil, &reqs[i]), func(b *frameBatch) { b.addRequest(&reqs[i]) }, reqs[i].Data, encodedSize(requestPayloadSize(&reqs[i]), reqs[i].Data)},
			{appendResponse(nil, &resps[i]), func(b *frameBatch) { b.addResponse(&resps[i]) }, resps[i].Data, encodedSize(responsePayloadSize(&resps[i]), resps[i].Data)},
		} {
			var got bytes.Buffer
			one := frameBatch{enc: make([]byte, 0, 256), ctr: new(transportCounters)}
			pair.add(&one)
			if len(one.enc) != pair.encoded {
				t.Fatalf("frame %d (%d-byte payload): %d bytes encoded into the batch buffer, size estimate says %d", i, len(pair.data), len(one.enc), pair.encoded)
			}
			if err := one.flush(&got); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got.Bytes(), pair.want) {
				t.Fatalf("frame %d (%d-byte payload): vectored encoding differs from the contiguous one", i, len(pair.data))
			}
			pair.add(&all)
			pair.add(&growing)
			wantAll.Write(pair.want)
			wantBytes += int64(len(pair.want))
			if len(pair.data) >= byRefMin {
				wantByRef += int64(len(pair.data))
			}
		}
	}
	if err := all.flush(&gotAll); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(gotAll.Bytes(), wantAll.Bytes()) {
		t.Fatal("batched vectored encoding differs from the concatenated contiguous frames")
	}
	gotAll.Reset()
	if err := growing.flush(&gotAll); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(gotAll.Bytes(), wantAll.Bytes()) {
		t.Fatal("batch whose buffer grew mid-way differs from the concatenated contiguous frames")
	}
	// The batch counts header and payload, by reference or not.
	st := ctr.snapshot()
	if st.FramesSent != int64(2*len(reqs)) || st.BytesSent != wantBytes || st.BytesByReference != wantByRef {
		t.Fatalf("counters: %d frames, %d bytes, %d by reference; want %d, %d, %d",
			st.FramesSent, st.BytesSent, st.BytesByReference, 2*len(reqs), wantBytes, wantByRef)
	}
	// A flushed batch holds no payload references and is reusable.
	if len(all.vec) != 0 || len(all.enc) != 0 || all.cut != 0 {
		t.Fatalf("batch not empty after flush: %d segments, %d encoded bytes", len(all.vec), len(all.enc))
	}
	for _, seg := range all.vec[:cap(all.vec)] {
		if seg != nil {
			t.Fatal("flushed batch still references a segment")
		}
	}
}

// TestFrameReaderDirectRead checks the read side of the same threshold: a
// stream of frames of every size class, delivered in awkward pieces, comes
// out frame by frame, whether a frame went through the read buffer or past
// it.
func TestFrameReaderDirectRead(t *testing.T) {
	var stream bytes.Buffer
	var want [][]byte
	for round := 0; round < 2; round++ {
		for _, size := range goldenSizes {
			req := Request{ID: uint64(size), Op: OpPutChunk, Pool: "p", Object: "o", Data: patterned(size, byte(round))}
			frame := appendRequest(nil, &req)
			want = append(want, frame[4:])
			stream.Write(frame)
		}
	}
	for _, piece := range []int{1, 7, 4096, byRefMin - 1, byRefMin + 1, 1 << 30} {
		fr := newFrameReader(&piecewiseReader{data: stream.Bytes(), piece: piece})
		for i, w := range want {
			got, err := fr.next(DefaultMaxFrameSize)
			if err != nil {
				t.Fatalf("piece %d, frame %d: %v", piece, i, err)
			}
			if !bytes.Equal(got, w) {
				t.Fatalf("piece %d, frame %d: payload differs", piece, i)
			}
		}
		if _, err := fr.next(DefaultMaxFrameSize); err != io.EOF {
			t.Fatalf("piece %d: after the last frame: %v, want io.EOF", piece, err)
		}
	}
}

// piecewiseReader hands out data at most piece bytes per Read.
type piecewiseReader struct {
	data  []byte
	piece int
}

func (r *piecewiseReader) Read(p []byte) (int, error) {
	if len(r.data) == 0 {
		return 0, io.EOF
	}
	n := min(len(p), r.piece, len(r.data))
	copy(p, r.data[:n])
	r.data = r.data[n:]
	return n, nil
}
