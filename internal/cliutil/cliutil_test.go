package cliutil

import (
	"os"
	"path/filepath"
	"testing"
)

func TestParseBytes(t *testing.T) {
	tests := []struct {
		in   string
		want int64
	}{
		{"0", 0},
		{"1234", 1234},
		{"1k", 1024},
		{"1K", 1024},
		{"2kb", 2048},
		{"4KiB", 4096},
		{"64m", 64 << 20},
		{"1g", 1 << 30},
		{"1.5g", 3 << 29},
		{"2t", 2 << 40},
		{"100b", 100},
		{" 8M ", 8 << 20},
	}
	for _, tc := range tests {
		got, err := ParseBytes(tc.in)
		if err != nil {
			t.Errorf("ParseBytes(%q): %v", tc.in, err)
			continue
		}
		if got != tc.want {
			t.Errorf("ParseBytes(%q) = %d, want %d", tc.in, got, tc.want)
		}
	}
}

func TestParseBytesErrors(t *testing.T) {
	for _, in := range []string{"", "x", "k", "-5", "-1g", "1.2.3m"} {
		if _, err := ParseBytes(in); err == nil {
			t.Errorf("ParseBytes(%q) accepted", in)
		}
	}
}

func TestFormatBytes(t *testing.T) {
	tests := []struct {
		in   int64
		want string
	}{
		{512, "512B"},
		{2048, "2.0KiB"},
		{64 << 20, "64.0MiB"},
		{3 << 29, "1.5GiB"},
		{1 << 41, "2.0TiB"},
	}
	for _, tc := range tests {
		if got := FormatBytes(tc.in); got != tc.want {
			t.Errorf("FormatBytes(%d) = %q, want %q", tc.in, got, tc.want)
		}
	}
}

func TestRoundTrip(t *testing.T) {
	for _, n := range []int64{1 << 10, 1 << 20, 1 << 30, 5 << 20} {
		s := FormatBytes(n)
		got, err := ParseBytes(s)
		if err != nil || got != n {
			t.Errorf("round trip %d -> %q -> %d (%v)", n, s, got, err)
		}
	}
}

func TestLoadTrace(t *testing.T) {
	for _, mix := range []string{"cdn", "web"} {
		tr, err := LoadTrace("", mix, 300, 1)
		if err != nil || tr.Len() != 300 {
			t.Errorf("LoadTrace(gen %s) = %v, %v", mix, tr, err)
		}
	}
	path := filepath.Join(t.TempDir(), "t.txt")
	if err := os.WriteFile(path, []byte("1 7 10\n2 8 20 3\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if tr, err := LoadTrace(path, "", 0, 0); err != nil || tr.Len() != 2 {
		t.Errorf("LoadTrace(file) = %v, %v", tr, err)
	}
	for _, bad := range [][2]string{{"", ""}, {path, "cdn"}, {"", "video"}, {path + ".missing", ""}} {
		if tr, err := LoadTrace(bad[0], bad[1], 10, 1); err == nil {
			t.Errorf("LoadTrace(%q, %q) = %v, want an error", bad[0], bad[1], tr)
		}
	}
}
