package main

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"rex"
)

// TestRunSmoke drives the CLI end to end on the built-in sample KB.
func TestRunSmoke(t *testing.T) {
	var out, errOut bytes.Buffer
	code := run([]string{"-start", "brad_pitt", "-end", "angelina_jolie", "-k", "3"}, &out, &errOut)
	if code != 0 {
		t.Fatalf("exit code = %d, stderr: %s", code, errOut.String())
	}
	s := out.String()
	if !strings.Contains(s, "spouse") {
		t.Errorf("output missing the spouse explanation:\n%s", s)
	}
	if !strings.Contains(s, "knowledge base:") {
		t.Errorf("output missing the KB header:\n%s", s)
	}
}

// TestRunJSON checks that -json emits a decodable rex.Result.
func TestRunJSON(t *testing.T) {
	var out, errOut bytes.Buffer
	code := run([]string{"-start", "kate_winslet", "-end", "leonardo_dicaprio", "-json"}, &out, &errOut)
	if code != 0 {
		t.Fatalf("exit code = %d, stderr: %s", code, errOut.String())
	}
	var res rex.Result
	if err := json.Unmarshal(out.Bytes(), &res); err != nil {
		t.Fatalf("invalid JSON: %v\n%s", err, out.String())
	}
	if res.Start != "kate_winslet" || len(res.Explanations) == 0 {
		t.Errorf("unexpected result: %+v", res)
	}
}

// TestRunSQL: -sql renders each explanation's SQL, printed and in -json
// output, which has none without it.
func TestRunSQL(t *testing.T) {
	args := []string{"-start", "brad_pitt", "-end", "angelina_jolie", "-k", "2"}
	for _, tc := range []struct {
		flags   []string
		wantSQL bool
	}{
		{[]string{"-json"}, false},
		{[]string{"-json", "-sql"}, true},
	} {
		var out, errOut bytes.Buffer
		if code := run(append(args, tc.flags...), &out, &errOut); code != 0 {
			t.Fatalf("%v: exit code = %d, stderr: %s", tc.flags, code, errOut.String())
		}
		var res rex.Result
		if err := json.Unmarshal(out.Bytes(), &res); err != nil {
			t.Fatalf("%v: invalid JSON: %v\n%s", tc.flags, err, out.String())
		}
		for _, e := range res.Explanations {
			if got := strings.HasPrefix(e.SQL, "SELECT "); got != tc.wantSQL {
				t.Errorf("%v: SQL %q", tc.flags, e.SQL)
			}
		}
		if got := strings.Contains(out.String(), `"SQL"`); got != tc.wantSQL {
			t.Errorf("%v: \"SQL\" key present %v", tc.flags, got)
		}
	}
	var out, errOut bytes.Buffer
	if code := run(append(args, "-sql"), &out, &errOut); code != 0 || !strings.Contains(out.String(), "distributional SQL:") {
		t.Errorf("-sql: exit code %d, output:\n%s", code, out.String())
	}
}

// TestRunErrors checks flag validation and unknown-entity exit codes.
func TestRunErrors(t *testing.T) {
	var out, errOut bytes.Buffer
	if code := run([]string{"-h"}, &out, &errOut); code != 0 {
		t.Errorf("-h: exit code = %d, want 0", code)
	}
	if code := run([]string{"-start", "brad_pitt"}, &out, &errOut); code != 2 {
		t.Errorf("missing -end: exit code = %d, want 2", code)
	}
	errOut.Reset()
	if code := run([]string{"-start", "brad_pitt", "-end", "ghost"}, &out, &errOut); code != 1 {
		t.Errorf("unknown entity: exit code = %d, want 1", code)
	}
	if !strings.Contains(errOut.String(), "unknown entity") {
		t.Errorf("stderr = %q, want unknown entity", errOut.String())
	}
	if code := run([]string{"-start", "a", "-end", "b", "-measure", "bogus"}, &out, &errOut); code != 1 {
		t.Errorf("bad measure: exit code = %d, want 1", code)
	}
}
