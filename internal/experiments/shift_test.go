package experiments

import (
	"reflect"
	"testing"

	"megammap/internal/faults"
	"megammap/internal/vtime"
)

// faultSpans names the vtime.Duration fields of faults.Plan that are
// lengths, not points in time; shiftFaultPlan must leave them alone and
// move every other one.
var faultSpans = map[string]bool{
	"LinkFault.DelaySpike": true,
	"Jitter.Amp":           true,
	"Flap.Up":              true,
	"Flap.Period":          true,
	"DeviceFault.RampFor":  true,
	"Policy.Base":          true,
	"Policy.Cap":           true,
}

// TestShiftFaultPlanMovesEveryTime fills every vtime.Duration field of
// a faults.Plan (one element per rule slice) and checks that the shift
// moves each point in time and no span. A new timed field added to
// faults.Plan fails here until shiftFaultPlan handles it (or it is
// listed as a span).
func TestShiftFaultPlanMovesEveryTime(t *testing.T) {
	const at, start = 3 * vtime.Millisecond, 100 * vtime.Millisecond
	durT := reflect.TypeOf(vtime.Duration(0))
	var fp faults.Plan
	pv := reflect.ValueOf(&fp).Elem()

	// structsOf returns the rule structs of plan field i: the single
	// element of a slice field, or the field itself for a struct.
	structsOf := func(v reflect.Value, i int, grow bool) []reflect.Value {
		f := v.Field(i)
		switch f.Kind() {
		case reflect.Slice:
			if grow {
				f.Set(reflect.MakeSlice(f.Type(), 1, 1))
			}
			if f.Len() == 0 {
				return nil
			}
			return []reflect.Value{f.Index(0)}
		case reflect.Struct:
			return []reflect.Value{f}
		}
		return nil
	}
	for i := 0; i < pv.NumField(); i++ {
		for _, s := range structsOf(pv, i, true) {
			for j := 0; j < s.NumField(); j++ {
				if s.Field(j).Type() == durT {
					s.Field(j).SetInt(int64(at))
				}
			}
		}
	}

	shifted := shiftFaultPlan(&fp, start)
	sv := reflect.ValueOf(shifted)
	checked := 0
	for i := 0; i < sv.NumField(); i++ {
		ss := structsOf(sv, i, false)
		if len(ss) == 0 && pv.Field(i).Kind() == reflect.Slice {
			t.Errorf("%s: rule dropped by the shift", sv.Type().Field(i).Name)
		}
		for _, s := range ss {
			for j := 0; j < s.NumField(); j++ {
				if s.Field(j).Type() != durT {
					continue
				}
				name := s.Type().Name() + "." + s.Type().Field(j).Name
				want := at + start
				if faultSpans[name] {
					want = at
				}
				if got := vtime.Duration(s.Field(j).Int()); got != want {
					t.Errorf("%s = %v after shifting by %v, want %v", name, got, start, want)
				}
				checked++
			}
		}
	}
	if checked < len(faultSpans)+8 {
		t.Fatalf("checked only %d duration fields; the reflection walk missed rule types", checked)
	}
	// The caller's plan is not modified.
	if fp.Crashes[0].At != at || fp.Partitions[0].From != at {
		t.Errorf("shift mutated its input: %+v", fp)
	}
}
