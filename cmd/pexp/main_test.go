package main

import (
	"strings"
	"testing"
)

// TestRunErrorPaths: every user-input failure must come back as a
// non-zero exit code with a friendly stderr message, never a panic.
func TestRunErrorPaths(t *testing.T) {
	cases := []struct {
		name string
		args []string
		code int
		want string // substring of stderr
	}{
		{"undefined flag", []string{"-no-such-flag"}, 2, "flag provided but not defined"},
		{"malformed flag value", []string{"-jobs", "lots"}, 2, "invalid value"},
		{"no experiment selected", nil, 1, "-exp required"},
		{"unknown experiment", []string{"-exp", "fig99"}, 1, `unknown experiment "fig99"`},
		{"unknown in list", []string{"-exp", "table2,fig99"}, 1, `unknown experiment "fig99"`},
		{"negative mtbf", []string{"-exp", "table2", "-mtbf", "-1"}, 1, "-mtbf and -mttr must be ≥ 0 hours, got -1/0"},
		{"write-fail probability above 1", []string{"-exp", "table2", "-io-write-fail", "2"}, 1,
			"-io-write-fail and -io-read-fail must be in [0,1], got 2/0"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var stdout, stderr strings.Builder
			code := run(tc.args, &stdout, &stderr)
			if code != tc.code {
				t.Errorf("exit code = %d, want %d (stderr: %s)", code, tc.code, stderr.String())
			}
			if !strings.Contains(stderr.String(), tc.want) {
				t.Errorf("stderr = %q, want substring %q", stderr.String(), tc.want)
			}
		})
	}
}

func TestRunList(t *testing.T) {
	var stdout, stderr strings.Builder
	if code := run([]string{"-list"}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit code = %d, stderr: %s", code, stderr.String())
	}
	for _, want := range []string{"table2", "fig7", "failures"} {
		if !strings.Contains(stdout.String(), want) {
			t.Errorf("-list output missing %q:\n%s", want, stdout.String())
		}
	}
}
