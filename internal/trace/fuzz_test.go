package trace

import (
	"bytes"
	"io"
	"strings"
	"testing"

	"mtbench/internal/core"
)

// FuzzTraceCodecs fuzzes both trace codecs at their input boundary.
// Arbitrary bytes fed to either reader must yield records or an
// error, never a panic. A record built from the fuzzed fields and
// written with either writer must read back equal; the JSONL codec
// gets its strings as valid UTF-8, which is all JSON can carry. The
// seed corpus is checked in under testdata/fuzz/FuzzTraceCodecs.
//
//	go test -run=NONE -fuzz=FuzzTraceCodecs -fuzztime=10s ./internal/trace
func FuzzTraceCodecs(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte, seq int64, thread int32, op uint8, obj, value int64,
		flags uint8, name, file string, line int, fn, why string) {
		for _, rd := range []func(io.Reader) (Reader, error){NewBinaryReader, NewJSONLReader} {
			if r, err := rd(bytes.NewReader(data)); err == nil {
				ReadAll(r)
			}
		}

		rec := Record{
			Seq: seq, Thread: thread, Op: core.Op(1 + int(op)%(core.NumOps-1)).String(),
			Obj: obj, Value: value, Atomic: flags&1 != 0, Bug: flags&2 != 0,
			Name: name, File: file, Line: line, Fn: fn, Why: why,
		}
		if len(name)+len(file)+len(fn)+len(why) > maxBlob {
			t.Skip("strings past the reader's cap")
		}
		// Two copies, so the second reads its strings from the intern
		// table.
		roundtrip(t, NewBinaryWriter, NewBinaryReader, []Record{rec, rec})
		for _, s := range []*string{&rec.Name, &rec.File, &rec.Fn, &rec.Why} {
			*s = strings.ToValidUTF8(*s, "\uFFFD")
		}
		roundtrip(t, NewJSONLWriter, NewJSONLReader, []Record{rec, rec})
	})
}
