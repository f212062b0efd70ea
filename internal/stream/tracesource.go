package stream

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"os"
)

// TraceSource reads a binary trace incrementally, implementing Source
// without materializing the whole record batch — the right shape for
// feeding the engine from a pipe or a file larger than memory.
type TraceSource struct {
	r      *bufio.Reader
	closer io.Closer
	schema Schema
	left   uint64
	buf    []byte
	cb     *ColumnBatch // NextBatch's reused columnar decode buffer
	err    error
}

// NewTraceSource wraps a reader positioned at the start of a binary
// trace. The header is consumed immediately so the schema is available
// before the first record.
func NewTraceSource(r io.Reader) (*TraceSource, error) {
	br := bufio.NewReaderSize(r, 1<<16)
	magic := make([]byte, len(traceMagic))
	if _, err := io.ReadFull(br, magic); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadTrace, err)
	}
	if string(magic) != traceMagic {
		return nil, fmt.Errorf("%w: bad magic %q", ErrBadTrace, magic)
	}
	var version, numAttrs uint8
	var count uint64
	if err := binary.Read(br, binary.LittleEndian, &version); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadTrace, err)
	}
	if version != traceVersion {
		return nil, fmt.Errorf("%w: unsupported version %d", ErrBadTrace, version)
	}
	if err := binary.Read(br, binary.LittleEndian, &numAttrs); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadTrace, err)
	}
	if err := binary.Read(br, binary.LittleEndian, &count); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadTrace, err)
	}
	schema, err := NewSchema(int(numAttrs))
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadTrace, err)
	}
	return &TraceSource{
		r:      br,
		schema: schema,
		left:   count,
		buf:    make([]byte, 4*(int(numAttrs)+1)),
	}, nil
}

// OpenTraceSource opens a trace file for incremental reading; Close must
// be called when done (exhausting the source also releases the file).
// A regular file too short for the record count in its header is refused
// here, before any of its records are read, as ReadTraceFile refuses it.
func OpenTraceSource(path string) (*TraceSource, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	src, err := NewTraceSource(f)
	if err == nil {
		err = src.checkLength(f)
	}
	if err != nil {
		f.Close()
		return nil, err
	}
	src.closer = f
	return src, nil
}

// checkLength compares the header's record count with the size of the
// file behind a freshly opened source.
func (t *TraceSource) checkLength(f *os.File) error {
	fi, err := f.Stat()
	if err != nil || !fi.Mode().IsRegular() {
		return err
	}
	have := uint64(fi.Size()-int64(traceHeaderLen)) / uint64(len(t.buf))
	if have < t.left {
		return fmt.Errorf("%w: truncated: header promises %d records, file holds %d", ErrBadTrace, t.left, have)
	}
	return nil
}

// Schema returns the trace's schema.
func (t *TraceSource) Schema() Schema { return t.schema }

// Remaining returns the number of records not yet read.
func (t *TraceSource) Remaining() uint64 { return t.left }

// Next implements Source. Each returned record owns a fresh attribute
// slice.
func (t *TraceSource) Next() (Record, bool) {
	if t.err != nil || t.left == 0 {
		t.release()
		return Record{}, false
	}
	// A block read (NextColumns) may have grown buf past one record.
	buf := t.buf[:4*(t.schema.NumAttrs+1)]
	if _, err := io.ReadFull(t.r, buf); err != nil {
		t.err = fmt.Errorf("%w: truncated with %d records left: %v", ErrBadTrace, t.left, err)
		t.release()
		return Record{}, false
	}
	t.left--
	attrs := make([]uint32, t.schema.NumAttrs)
	off := 0
	for i := range attrs {
		attrs[i] = binary.LittleEndian.Uint32(buf[off:])
		off += 4
	}
	rec := Record{Attrs: attrs, Time: binary.LittleEndian.Uint32(buf[off:])}
	if t.left == 0 {
		t.release()
	}
	return rec, true
}

// NextColumns implements ColumnSource: it reads a block of encoded
// records in one ReadFull and decodes each attribute with a stride-1
// destination pass, skipping the per-record attribute allocation Next
// pays. Truncation behaves exactly like Next: the error is recorded and
// whatever decoded cleanly before it is discarded.
func (t *TraceSource) NextColumns(dst *ColumnBatch, limit int) int {
	w := t.schema.NumAttrs
	dst.Reset(w)
	if t.err != nil || t.left == 0 || limit <= 0 {
		t.release()
		return 0
	}
	n := limit
	if uint64(n) > t.left {
		n = int(t.left)
	}
	rb := 4 * (w + 1)
	need := n * rb
	if cap(t.buf) < need {
		t.buf = make([]byte, need)
	}
	buf := t.buf[:need]
	if _, err := io.ReadFull(t.r, buf); err != nil {
		t.err = fmt.Errorf("%w: truncated with %d records left: %v", ErrBadTrace, t.left, err)
		t.release()
		return 0
	}
	t.left -= uint64(n)
	for a := 0; a < w; a++ {
		col := dst.Cols[a]
		off := 4 * a
		for i := 0; i < n; i++ {
			col = append(col, binary.LittleEndian.Uint32(buf[off:]))
			off += rb
		}
		dst.Cols[a] = col
	}
	times := dst.Time
	off := 4 * w
	for i := 0; i < n; i++ {
		times = append(times, binary.LittleEndian.Uint32(buf[off:]))
		off += rb
	}
	dst.Time = times
	if t.left == 0 {
		t.release()
	}
	return n
}

// NextBatch implements BatchSource as a record-major shim over the
// columnar decode: records are gathered out of a reused ColumnBatch,
// with one attribute arena allocation per batch instead of one per
// record.
func (t *TraceSource) NextBatch(dst []Record) int {
	if t.cb == nil {
		t.cb = &ColumnBatch{}
	}
	n := t.NextColumns(t.cb, len(dst))
	if n == 0 {
		return 0
	}
	w := t.cb.Width()
	arena := make([]uint32, n*w)
	for a := 0; a < w; a++ {
		col := t.cb.Cols[a]
		for i := 0; i < n; i++ {
			arena[i*w+a] = col[i]
		}
	}
	for i := 0; i < n; i++ {
		dst[i] = Record{Attrs: arena[i*w : (i+1)*w : (i+1)*w], Time: t.cb.Time[i]}
	}
	return n
}

// Err implements Source.
func (t *TraceSource) Err() error { return t.err }

// Close releases the underlying file, if any.
func (t *TraceSource) Close() error {
	c := t.closer
	t.closer = nil
	if c != nil {
		return c.Close()
	}
	return nil
}

func (t *TraceSource) release() {
	if t.closer != nil {
		t.closer.Close()
		t.closer = nil
	}
}
