package lint

import (
	"bytes"
	"math/big"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/flexray"
	"repro/internal/model"
	"repro/internal/units"
)

// cfgErrorFindings counts the failing error-severity CFG findings of a
// report: the findings that mean "this configuration is invalid".
func cfgErrorFindings(rep *Report) int {
	n := 0
	for _, f := range rep.Findings {
		if f.Status == StatusFail && f.Severity == SeverityError && strings.HasPrefix(f.Rule, "CFG") {
			n++
		}
	}
	return n
}

// validateAndLint runs Validate and the structure pack on one
// configuration under the same Params, turning a panic in either into
// a test error.
func validateAndLint(t *testing.T, sys *model.System, cfg *flexray.Config, p flexray.Params) (verr error, rep *Report) {
	t.Helper()
	defer func() {
		if r := recover(); r != nil {
			t.Fatalf("panic: %v", r)
		}
	}()
	verr = cfg.Validate(p, sys)
	opts := DefaultOptions()
	opts.Params = p
	opts.Schedule = false
	rep, err := Run(sys, cfg, opts, PackStructure)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	return verr, rep
}

// TestHostileConfigsAgree feeds Validate and lint the configurations
// that used to crash one of them or make them disagree: neither may
// panic, and Validate accepts exactly when lint reports no
// error-severity CFG finding under the same Params.
func TestHostileConfigsAgree(t *testing.T) {
	sys := loadSystem(t, "valid_sys.json")
	base := loadConfig(t, sys, "valid_cfg.json")
	var m1 model.ActID
	for _, m := range sys.App.Messages(int(model.DYN)) {
		if sys.App.Act(m).Name == "m1" {
			m1 = m
		}
	}
	def := flexray.DefaultParams()
	cases := []struct {
		name   string
		params flexray.Params
		mutate func(*flexray.Config)
		rule   string // the CFG rule that must fail; "" for a valid config
	}{
		{name: "valid fixture", params: def, mutate: func(*flexray.Config) {}},
		{name: "zero minislot length", params: def, rule: "CFG002",
			mutate: func(c *flexray.Config) { c.MinislotLen, c.NumMinislots = 0, 3 }},
		{name: "negative minislot length", params: def, rule: "CFG002",
			mutate: func(c *flexray.Config) { c.MinislotLen = -5 * units.Microsecond }},
		{name: "FrameID key beyond the activities", params: def, rule: "CFG007",
			mutate: func(c *flexray.Config) { c.FrameID[model.ActID(len(sys.App.Acts)+7)] = 3 }},
		{name: "negative FrameID key", params: def, rule: "CFG007",
			mutate: func(c *flexray.Config) { c.FrameID[-1] = 3 }},
		{name: "zero FrameID", params: def, rule: "CFG007",
			mutate: func(c *flexray.Config) { c.FrameID[m1] = 0 }},
		{name: "negative FrameID", params: def, rule: "CFG007",
			mutate: func(c *flexray.Config) { c.FrameID[m1] = -4 }},
		{name: "zero-minislot segment with DYN messages", params: def, rule: "CFG010",
			mutate: func(c *flexray.Config) { c.NumMinislots = 0 }},
		{name: "huge FrameID", params: def, rule: "CFG010",
			mutate: func(c *flexray.Config) { c.FrameID[m1] = int(^uint(0) >> 1) }},
		{name: "dynamic segment overflowing int64", params: def, rule: "CFG003",
			mutate: func(c *flexray.Config) { c.MinislotLen, c.NumMinislots = 1<<62+1024, 4 }},
		{name: "10 ns macrotick", params: flexray.Params{GdBit: 100 * units.Nanosecond, Macrotick: 10 * units.Nanosecond},
			rule: "CFG001", mutate: func(*flexray.Config) {}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := base.Clone()
			tc.mutate(cfg)
			verr, rep := validateAndLint(t, sys, cfg, tc.params)
			if (verr == nil) != (cfgErrorFindings(rep) == 0) {
				t.Fatalf("Validate = %v, but lint has %d error CFG findings: %v",
					verr, cfgErrorFindings(rep), rep.FailingRules(SeverityError))
			}
			if tc.rule == "" {
				if verr != nil {
					t.Fatalf("valid configuration rejected: %v", verr)
				}
				return
			}
			if verr == nil {
				t.Fatalf("%s violation accepted", tc.rule)
			}
			failed := false
			for _, id := range rep.FailingRules(SeverityError) {
				failed = failed || id == tc.rule
			}
			if !failed {
				t.Fatalf("rule %s did not fail; failing %v, Validate: %v", tc.rule, rep.FailingRules(SeverityError), verr)
			}
		})
	}
}

// exactCycle is gdCycle in ns without the int64 wrap-around.
func exactCycle(c *flexray.Config) *big.Int {
	st := new(big.Int).Mul(big.NewInt(int64(c.NumStaticSlots)), big.NewInt(int64(c.StaticSlotLen)))
	dyn := new(big.Int).Mul(big.NewInt(int64(c.NumMinislots)), big.NewInt(int64(c.MinislotLen)))
	return st.Add(st, dyn)
}

// FuzzConfigCheck drives the configuration checker with arbitrary
// config JSON plus raw FrameID entries (keys the JSON form cannot
// express: negative or beyond the activities) against the lint
// fixture system. Neither Validate nor lint may panic, and they must
// agree: Validate accepts exactly when lint reports no error CFG
// finding, and each of Check's problems is one such finding. An
// accepted configuration has a cycle in [0, 16 ms).
func FuzzConfigCheck(f *testing.F) {
	for _, name := range []string{"valid_cfg.json", "invalid_cfg.json"} {
		data, err := os.ReadFile(filepath.Join("testdata", name))
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data, []byte{}, uint16(1000))
	}
	f.Add([]byte(`{"static_slot_us":50,"num_static_slots":2,"slot_owners":[0,1],"minislot_us":0,"num_minislots":3,"frame_ids":{"m1":1,"m2":2}}`),
		[]byte{}, uint16(1000))
	f.Add([]byte(`{"static_slot_us":50,"num_static_slots":2,"slot_owners":[0,1],"minislot_us":5,"num_minislots":0,"frame_ids":{"m1":1,"m2":2}}`),
		[]byte{40, 0, 3, 0xff, 0xff, 0xfe}, uint16(10))
	f.Add([]byte(`{"static_slot_us":50,"num_static_slots":2,"slot_owners":[0,1],"minislot_us":4611686018427389.952,"num_minislots":4,"frame_ids":{"m1":1,"m2":2}}`),
		[]byte{}, uint16(1000))
	raw, err := os.ReadFile(filepath.Join("testdata", "valid_sys.json"))
	if err != nil {
		f.Fatal(err)
	}
	sys, err := model.ReadJSON(bytes.NewReader(raw))
	if err != nil {
		f.Fatal(err)
	}
	f.Fuzz(func(t *testing.T, cfgJSON, fids []byte, macrotickNs uint16) {
		cfg, err := flexray.ReadJSON(bytes.NewReader(cfgJSON), sys)
		if err != nil {
			return
		}
		// Each 3-byte chunk is one raw entry: a signed activity id and
		// a signed 16-bit FrameID.
		for ; len(fids) >= 3; fids = fids[3:] {
			cfg.FrameID[model.ActID(int8(fids[0]))] = int(int16(uint16(fids[1])<<8 | uint16(fids[2])))
		}
		p := flexray.Params{GdBit: 100 * units.Nanosecond, Macrotick: units.Duration(macrotickNs) * units.Nanosecond}
		verr, rep := validateAndLint(t, sys, cfg, p)
		probs := cfg.Check(p, sys)
		if got := cfgErrorFindings(rep); got != len(probs) || (verr == nil) != (got == 0) {
			t.Fatalf("Validate = %v, Check found %d problems, lint %d error CFG findings (%v)\nconfig %v",
				verr, len(probs), got, rep.FailingRules(SeverityError), cfg)
		}
		if cy := exactCycle(cfg); verr == nil && (cy.Sign() < 0 || cy.Cmp(big.NewInt(int64(flexray.MaxCycle))) >= 0) {
			t.Fatalf("accepted configuration with gdCycle %v ns: %v", cy, cfg)
		}
	})
}
