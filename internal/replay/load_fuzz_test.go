package replay

import (
	"bytes"
	"reflect"
	"testing"
)

// FuzzScheduleLoad: Load never panics on arbitrary bytes, and a
// schedule it accepts survives Save and Load unchanged. An empty
// decisions or order array and an absent one are the same scenario
// (Save omits both), so the comparison treats them alike. Seeds live
// in testdata/fuzz/FuzzScheduleLoad.
func FuzzScheduleLoad(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := Load(bytes.NewReader(data))
		if err != nil {
			return
		}
		want := canonical(s) // Save may touch s, so take the copy first
		var buf bytes.Buffer
		if err := s.Save(&buf); err != nil {
			t.Fatalf("Save of a loaded schedule: %v", err)
		}
		back, err := Load(&buf)
		if err != nil {
			t.Fatalf("Load of a saved schedule: %v\n%s", err, buf.Bytes())
		}
		if got := canonical(back); !reflect.DeepEqual(want, got) {
			t.Fatalf("round trip changed the schedule:\n  loaded: %+v\n  again:  %+v", want, got)
		}
	})
}

func canonical(s *Schedule) Schedule {
	c := *s
	if len(c.Decisions) == 0 {
		c.Decisions = nil
	}
	if len(c.Order) == 0 {
		c.Order = nil
	}
	return c
}
