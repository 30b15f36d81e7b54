package iofault

import (
	"reflect"
	"strings"
	"testing"
)

// FuzzParseProfile feeds arbitrary -io-fault specs to the parser: no
// panics, and an accepted spec yields probabilities in [0, 1] (never
// NaN), no negative trigger, the same profile on a second parse, and
// every fault it names — each token parsed alone sets nothing the whole
// spec's profile disagrees with, so no fault the user asked for is
// silently dropped.
func FuzzParseProfile(f *testing.F) {
	for _, s := range []string{
		"crash@1234, enospc@99,syncfail@2,renamefail@1,shortwrite:0.25,readflip:0.5",
		"writeerr:1", "shortread:0", "", ",,", "crash@x", "bogus@1",
		"writeerr:NaN", "syncfail@1,syncfail@2",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, spec string) {
		p, err := ParseProfile(spec)
		if err != nil {
			return
		}
		for name, v := range map[string]float64{
			"writeerr": p.WriteErrProb, "shortwrite": p.ShortWriteProb,
			"shortread": p.ShortReadProb, "readflip": p.ReadBitFlipProb,
		} {
			if !(v >= 0 && v <= 1) {
				t.Fatalf("%q: %s probability %v outside [0, 1]", spec, name, v)
			}
		}
		if p.CrashAtByte < 0 || p.DiskFullAtByte < 0 || p.FailSyncOp < 0 || p.FailRenameOp < 0 {
			t.Fatalf("%q: negative trigger in %+v", spec, p)
		}
		if again, err := ParseProfile(spec); err != nil || !reflect.DeepEqual(again, p) {
			t.Fatalf("%q: second parse gave %+v, %v; first %+v", spec, again, err, p)
		}
		whole := reflect.ValueOf(p)
		for _, tok := range strings.Split(spec, ",") {
			alone, err := ParseProfile(tok)
			if err != nil {
				t.Fatalf("%q accepted but its token %q refused: %v", spec, tok, err)
			}
			v := reflect.ValueOf(alone)
			for i := 0; i < v.NumField(); i++ {
				if fv := v.Field(i); !fv.IsZero() && fv.Interface() != whole.Field(i).Interface() {
					t.Fatalf("%q: token %q sets %s = %v, the profile has %v",
						spec, tok, v.Type().Field(i).Name, fv, whole.Field(i))
				}
			}
		}
	})
}
