package main

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

// TestJSONDeterminism is the tier-1 determinism satellite for the
// driver itself: two -json runs over the same sources must be
// byte-identical — diagnostics sorted by position, module-relative
// paths, no map order anywhere in the pipeline.
func TestJSONDeterminism(t *testing.T) {
	args := []string{"-json", "../../internal/lint/testdata/src/detrand"}
	var first string
	for i := 0; i < 2; i++ {
		var stdout, stderr bytes.Buffer
		code := run(args, &stdout, &stderr)
		if code != 1 {
			t.Fatalf("run %d: want exit 1 (findings), got %d (stderr: %s)", i, code, stderr.String())
		}
		if i == 0 {
			first = stdout.String()
			continue
		}
		if stdout.String() != first {
			t.Errorf("JSON output differs between runs:\n--- first ---\n%s--- second ---\n%s",
				first, stdout.String())
		}
	}
	// Every line must be a well-formed diagnostic object.
	for _, line := range strings.Split(strings.TrimSpace(first), "\n") {
		var d struct {
			File    string `json:"file"`
			Line    int    `json:"line"`
			Col     int    `json:"col"`
			Check   string `json:"check"`
			Message string `json:"message"`
		}
		if err := json.Unmarshal([]byte(line), &d); err != nil {
			t.Fatalf("bad JSON line %q: %v", line, err)
		}
		if d.File == "" || d.Line <= 0 || d.Col <= 0 || d.Check == "" || d.Message == "" {
			t.Errorf("incomplete diagnostic: %q", line)
		}
		if strings.HasPrefix(d.File, "/") {
			t.Errorf("diagnostic path not module-relative: %q", d.File)
		}
	}
}

// TestListMode describes every registered check and exits clean.
func TestListMode(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-list"}, &stdout, &stderr); code != 0 {
		t.Fatalf("want exit 0, got %d", code)
	}
	for _, name := range []string{
		"wallclock", "detrand", "stablesort", "maporder", "errwrite",
		"exhaustive", "globalmut", "allocfree", "staleignore",
	} {
		if !strings.Contains(stdout.String(), name) {
			t.Errorf("-list output missing check %q", name)
		}
	}
	if n := strings.Count(stdout.String(), "\n"); n != 9 {
		t.Errorf("-list printed %d lines, want one per check (9)", n)
	}
}

// TestParallelMatchesSerial pins the worker-pool determinism contract:
// a -j 1 sweep and a wide parallel sweep over the same trees produce
// byte-identical -json output and the same exit code.
func TestParallelMatchesSerial(t *testing.T) {
	trees := []string{
		"../../internal/lint/testdata/src/detrand",
		"../../internal/lint/testdata/src/wallclock",
		"../../internal/lint/testdata/src/detrand_stream",
	}
	var serialOut bytes.Buffer
	serialCode := run(append([]string{"-json", "-j", "1"}, trees...), &serialOut, &bytes.Buffer{})
	var parOut bytes.Buffer
	parCode := run(append([]string{"-json", "-j", "8"}, trees...), &parOut, &bytes.Buffer{})
	if serialCode != parCode {
		t.Fatalf("exit codes differ: serial %d, parallel %d", serialCode, parCode)
	}
	if serialCode != 1 {
		t.Fatalf("fixture trees should yield findings, got exit %d", serialCode)
	}
	if serialOut.String() != parOut.String() {
		t.Errorf("parallel output differs from serial:\n--- serial ---\n%s--- parallel ---\n%s",
			serialOut.String(), parOut.String())
	}
}

// TestSARIFOutput pins the -sarif mode: a well-formed, deterministic
// SARIF 2.1.0 log whose rule table covers every registered check and
// whose results carry module-relative locations.
func TestSARIFOutput(t *testing.T) {
	args := []string{"-sarif", "../../internal/lint/testdata/src/detrand"}
	var first string
	for i := 0; i < 2; i++ {
		var stdout, stderr bytes.Buffer
		code := run(args, &stdout, &stderr)
		if code != 1 {
			t.Fatalf("run %d: want exit 1 (findings), got %d (stderr: %s)", i, code, stderr.String())
		}
		if i == 0 {
			first = stdout.String()
			continue
		}
		if stdout.String() != first {
			t.Errorf("SARIF output differs between runs:\n--- first ---\n%s--- second ---\n%s",
				first, stdout.String())
		}
	}
	var log struct {
		Version string `json:"version"`
		Runs    []struct {
			Tool struct {
				Driver struct {
					Name  string `json:"name"`
					Rules []struct {
						ID string `json:"id"`
					} `json:"rules"`
				} `json:"driver"`
			} `json:"tool"`
			Results []struct {
				RuleID    string `json:"ruleId"`
				Level     string `json:"level"`
				Message   struct{ Text string }
				Locations []struct {
					PhysicalLocation struct {
						ArtifactLocation struct {
							URI string `json:"uri"`
						} `json:"artifactLocation"`
						Region struct {
							StartLine int `json:"startLine"`
						} `json:"region"`
					} `json:"physicalLocation"`
				} `json:"locations"`
			} `json:"results"`
		} `json:"runs"`
	}
	if err := json.Unmarshal([]byte(first), &log); err != nil {
		t.Fatalf("bad SARIF JSON: %v", err)
	}
	if log.Version != "2.1.0" || len(log.Runs) != 1 {
		t.Fatalf("want one SARIF 2.1.0 run, got version %q with %d runs", log.Version, len(log.Runs))
	}
	run0 := log.Runs[0]
	if run0.Tool.Driver.Name != "pjslint" {
		t.Errorf("driver name = %q, want pjslint", run0.Tool.Driver.Name)
	}
	if len(run0.Tool.Driver.Rules) != 9 {
		t.Errorf("rule table has %d entries, want all 9 checks", len(run0.Tool.Driver.Rules))
	}
	if len(run0.Results) == 0 {
		t.Fatal("no results for a dirty fixture tree")
	}
	for _, r := range run0.Results {
		if !strings.HasPrefix(r.RuleID, "pjslint/") || r.Level != "error" {
			t.Errorf("bad result %+v", r)
		}
		loc := r.Locations[0].PhysicalLocation
		if strings.HasPrefix(loc.ArtifactLocation.URI, "/") || loc.Region.StartLine <= 0 {
			t.Errorf("bad location %+v", loc)
		}
	}
}

// TestJSONAndSARIFExclusive rejects combining the two machine formats.
func TestJSONAndSARIFExclusive(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-json", "-sarif", "./..."}, &stdout, &stderr); code != 2 {
		t.Fatalf("want exit 2, got %d", code)
	}
	if !strings.Contains(stderr.String(), "mutually exclusive") {
		t.Errorf("stderr should explain the conflict: %s", stderr.String())
	}
}

// TestBadPattern rejects paths outside the module with exit 2.
func TestBadPattern(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"/"}, &stdout, &stderr); code != 2 {
		t.Fatalf("want exit 2, got %d (stderr: %s)", code, stderr.String())
	}
	if !strings.Contains(stderr.String(), "outside module") {
		t.Errorf("stderr should explain the rejection: %s", stderr.String())
	}
}

// TestCleanPackage exits 0 with no output on a clean package.
func TestCleanPackage(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"../../internal/cli"}, &stdout, &stderr); code != 0 {
		t.Fatalf("want exit 0, got %d (stderr: %s)", code, stderr.String())
	}
	if stdout.Len() != 0 {
		t.Errorf("clean package produced output: %s", stdout.String())
	}
}
