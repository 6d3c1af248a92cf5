package trace

import (
	"bufio"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
)

// The binary codec addresses §2.2's off-line storage problem: "huge
// traces are produced, and techniques compete in reducing and
// compressing the information needed". It varint-encodes fields,
// delta-encodes sequence numbers, and interns strings (names, files,
// functions, annotations) so repeated program points cost a couple of
// bytes each.
//
// Layout:
//
//	magic "MTBT", version byte
//	uvarint header length, header JSON
//	records until EOF, each:
//	  uvarint seq delta   (from previous record's seq)
//	  uvarint thread
//	  byte    op
//	  byte    flag bits (1 = atomic, 2 = bug-involved)
//	  uvarint obj
//	  varint  value (zigzag)
//	  string  name
//	  string  file
//	  uvarint line
//	  string  fn
//	  string  why
//
// where string is: uvarint 0 = empty; 1 = literal (uvarint length +
// bytes, appended to the intern table); k>=2 = intern table entry k-2.

var binaryMagic = [4]byte{'M', 'T', 'B', 'T'}

// maxBlob caps the header and string lengths a reader accepts, so a
// corrupt length fails with an error instead of a huge allocation.
const maxBlob = 1 << 20

type binWriter struct {
	bw      *bufio.Writer
	scratch []byte
	strs    map[string]uint64
	prevSeq int64
	err     error
}

// NewBinaryWriter returns a Writer emitting the binary codec to w.
func NewBinaryWriter(w io.Writer) Writer {
	return &binWriter{bw: bufio.NewWriter(w), strs: make(map[string]uint64)}
}

func (w *binWriter) WriteHeader(h Header) error {
	if w.err != nil {
		return w.err
	}
	h.Version = FormatVersion
	blob, err := json.Marshal(h)
	if err != nil {
		w.err = err
		return err
	}
	if _, err := w.bw.Write(binaryMagic[:]); err != nil {
		w.err = err
		return err
	}
	if err := w.bw.WriteByte(FormatVersion); err != nil {
		w.err = err
		return err
	}
	w.scratch = binary.AppendUvarint(w.scratch[:0], uint64(len(blob)))
	w.scratch = append(w.scratch, blob...)
	_, w.err = w.bw.Write(w.scratch)
	return w.err
}

func (w *binWriter) str(buf []byte, s string) []byte {
	if s == "" {
		return binary.AppendUvarint(buf, 0)
	}
	if id, ok := w.strs[s]; ok {
		return binary.AppendUvarint(buf, id+2)
	}
	w.strs[s] = uint64(len(w.strs))
	buf = binary.AppendUvarint(buf, 1)
	buf = binary.AppendUvarint(buf, uint64(len(s)))
	return append(buf, s...)
}

func (w *binWriter) WriteRecord(r Record) error {
	if w.err != nil {
		return w.err
	}
	op, err := parseOpByte(r.Op)
	if err != nil {
		w.err = err
		return err
	}
	var flags byte
	if r.Atomic {
		flags |= 1
	}
	if r.Bug {
		flags |= 2
	}
	b := w.scratch[:0]
	b = binary.AppendUvarint(b, uint64(r.Seq-w.prevSeq))
	w.prevSeq = r.Seq
	b = binary.AppendUvarint(b, uint64(r.Thread))
	b = append(b, op, flags)
	b = binary.AppendUvarint(b, uint64(r.Obj))
	b = binary.AppendVarint(b, r.Value)
	b = w.str(b, r.Name)
	b = w.str(b, r.File)
	b = binary.AppendUvarint(b, uint64(r.Line))
	b = w.str(b, r.Fn)
	b = w.str(b, r.Why)
	w.scratch = b
	_, w.err = w.bw.Write(b)
	return w.err
}

func (w *binWriter) Flush() error {
	if w.err != nil {
		return w.err
	}
	return w.bw.Flush()
}

type binReader struct {
	br      *bufio.Reader
	header  Header
	strs    []string
	prevSeq int64
}

// NewBinaryReader returns a Reader over the binary codec; it consumes
// the header eagerly.
func NewBinaryReader(r io.Reader) (Reader, error) {
	br := bufio.NewReader(r)
	var magic [4]byte
	if _, err := io.ReadFull(br, magic[:]); err != nil {
		return nil, fmt.Errorf("trace: bad magic: %w", err)
	}
	if magic != binaryMagic {
		return nil, fmt.Errorf("trace: not a binary trace (magic %q)", magic)
	}
	ver, err := br.ReadByte()
	if err != nil {
		return nil, err
	}
	if ver != FormatVersion {
		return nil, fmt.Errorf("trace: version %d, want %d", ver, FormatVersion)
	}
	hlen, err := binary.ReadUvarint(br)
	if err != nil {
		return nil, err
	}
	if hlen > maxBlob {
		return nil, fmt.Errorf("trace: header of %d bytes", hlen)
	}
	blob := make([]byte, hlen)
	if _, err := io.ReadFull(br, blob); err != nil {
		return nil, err
	}
	var h Header
	if err := json.Unmarshal(blob, &h); err != nil {
		return nil, fmt.Errorf("trace: bad header: %w", err)
	}
	return &binReader{br: br, header: h}, nil
}

func (r *binReader) Header() Header { return r.header }

func (r *binReader) rstr() (string, error) {
	tag, err := binary.ReadUvarint(r.br)
	if err != nil {
		return "", err
	}
	switch tag {
	case 0:
		return "", nil
	case 1:
		n, err := binary.ReadUvarint(r.br)
		if err != nil {
			return "", err
		}
		if n > maxBlob {
			return "", fmt.Errorf("trace: string of %d bytes", n)
		}
		buf := make([]byte, n)
		if _, err := io.ReadFull(r.br, buf); err != nil {
			return "", err
		}
		s := string(buf)
		r.strs = append(r.strs, s)
		return s, nil
	default:
		idx := tag - 2
		if idx >= uint64(len(r.strs)) {
			return "", fmt.Errorf("trace: intern index %d out of range", idx)
		}
		return r.strs[idx], nil
	}
}

func (r *binReader) Next() (Record, error) {
	delta, err := binary.ReadUvarint(r.br)
	if err != nil {
		if err == io.EOF {
			return Record{}, io.EOF
		}
		return Record{}, err
	}
	var rec Record
	r.prevSeq += int64(delta)
	rec.Seq = r.prevSeq
	tid, err := binary.ReadUvarint(r.br)
	if err != nil {
		return rec, corrupt(err)
	}
	rec.Thread = int32(tid)
	op, err := r.br.ReadByte()
	if err != nil {
		return rec, corrupt(err)
	}
	rec.Op, err = opByteName(op)
	if err != nil {
		return rec, err
	}
	flags, err := r.br.ReadByte()
	if err != nil {
		return rec, corrupt(err)
	}
	rec.Atomic = flags&1 != 0
	rec.Bug = flags&2 != 0
	obj, err := binary.ReadUvarint(r.br)
	if err != nil {
		return rec, corrupt(err)
	}
	rec.Obj = int64(obj)
	if rec.Value, err = binary.ReadVarint(r.br); err != nil {
		return rec, corrupt(err)
	}
	if rec.Name, err = r.rstr(); err != nil {
		return rec, corrupt(err)
	}
	if rec.File, err = r.rstr(); err != nil {
		return rec, corrupt(err)
	}
	line, err := binary.ReadUvarint(r.br)
	if err != nil {
		return rec, corrupt(err)
	}
	rec.Line = int(line)
	if rec.Fn, err = r.rstr(); err != nil {
		return rec, corrupt(err)
	}
	if rec.Why, err = r.rstr(); err != nil {
		return rec, corrupt(err)
	}
	return rec, nil
}

// corrupt upgrades a mid-record EOF to an explicit corruption error so
// truncated traces are distinguishable from complete ones.
func corrupt(err error) error {
	if err == io.EOF {
		return io.ErrUnexpectedEOF
	}
	return err
}
