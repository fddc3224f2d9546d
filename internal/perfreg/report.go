package perfreg

import (
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"strings"
	"time"
)

// SchemaVersion versions the report format. Readers reject reports
// from a different major schema instead of mis-gating on
// reinterpreted fields.
const SchemaVersion = 1

// Environment fingerprints the machine and runtime a report was
// produced on. Time metrics are only comparable between similar
// fingerprints; allocation metrics are comparable whenever the go
// version matches.
type Environment struct {
	GoVersion  string `json:"go_version"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	NumCPU     int    `json:"num_cpu"`
	CPU        string `json:"cpu,omitempty"`
}

// CurrentEnvironment fingerprints the running process.
func CurrentEnvironment() Environment {
	return Environment{
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		CPU:        cpuModel(),
	}
}

// cpuModel best-effort reads the CPU model name (linux /proc/cpuinfo;
// empty elsewhere).
func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return ""
	}
	for _, line := range strings.Split(string(data), "\n") {
		if name, ok := strings.CutPrefix(line, "model name"); ok {
			return strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(name), ":"))
		}
	}
	return ""
}

// ScenarioResult is one scenario's measured metrics plus the time
// threshold Compare applies to them.
type ScenarioResult struct {
	Name        string `json:"name"`
	Description string `json:"description,omitempty"`
	// Unit names what one op processes; NsPerOp, AllocsPerOp and
	// BytesPerOp are per unit op, OpsPerSec is units per second.
	Unit    string `json:"unit"`
	Samples int    `json:"samples"`
	Reps    int    `json:"reps"`
	// NsPerOp is the median over samples; NsMAD the median absolute
	// deviation — the noise band Compare widens thresholds by.
	NsPerOp     float64 `json:"ns_per_op"`
	NsMAD       float64 `json:"ns_mad"`
	OpsPerSec   float64 `json:"ops_per_sec"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
	// TimeTolPct is the ns/op regression tolerance in percent.
	TimeTolPct float64 `json:"time_tol_pct"`
}

// Report is one run of the suite, as `flexray-bench perf -out` writes
// it.
type Report struct {
	SchemaVersion int              `json:"schema_version"`
	GitSHA        string           `json:"git_sha,omitempty"`
	GeneratedAt   time.Time        `json:"generated_at"`
	Quick         bool             `json:"quick,omitempty"`
	Env           Environment      `json:"env"`
	Scenarios     []ScenarioResult `json:"scenarios"`
}

// Scenario returns the named result, or nil.
func (r *Report) Scenario(name string) *ScenarioResult {
	for i := range r.Scenarios {
		if r.Scenarios[i].Name == name {
			return &r.Scenarios[i]
		}
	}
	return nil
}

// WriteFile writes the report as indented JSON.
func (r *Report) WriteFile(path string) error {
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// ReadReport parses a report and rejects unknown schema versions.
func ReadReport(path string) (*Report, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r Report
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("perfreg: %s: %w", path, err)
	}
	if r.SchemaVersion != SchemaVersion {
		return nil, fmt.Errorf("perfreg: %s: schema version %d, this binary reads %d",
			path, r.SchemaVersion, SchemaVersion)
	}
	return &r, nil
}

// GitSHA returns the HEAD commit of the repository containing dir, or
// "" when git (or the repository) is unavailable — reports stay
// usable outside a checkout.
func GitSHA(dir string) string {
	cmd := exec.Command("git", "rev-parse", "HEAD")
	cmd.Dir = dir
	out, err := cmd.Output()
	if err != nil {
		return ""
	}
	return strings.TrimSpace(string(out))
}
