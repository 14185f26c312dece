package httpjson

import (
	"net/http/httptest"
	"regexp"
	"strings"
	"testing"
)

// TestRequestID: an ID of at most 64 bytes is adopted as sent; a missing
// or longer one is replaced by 16 fresh hex characters.
func TestRequestID(t *testing.T) {
	minted := regexp.MustCompile(`^[0-9a-f]{16}$`)
	for _, tc := range []struct {
		name, sent string
		adopt      bool
	}{
		{"empty", "", false},
		{"64 bytes", strings.Repeat("a", 64), true},
		{"65 bytes", strings.Repeat("a", 65), false},
	} {
		r := httptest.NewRequest("GET", "/explain", nil)
		if tc.sent != "" {
			r.Header.Set(RequestIDHeader, tc.sent)
		}
		got := RequestID(r)
		if tc.adopt && got != tc.sent {
			t.Errorf("%s: got %q, want the sent ID", tc.name, got)
		}
		if !tc.adopt && !minted.MatchString(got) {
			t.Errorf("%s: got %q, want 16 minted hex characters", tc.name, got)
		}
	}
}
