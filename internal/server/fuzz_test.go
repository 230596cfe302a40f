package server

import (
	"bytes"
	"net"
	"slices"
	"strings"
	"testing"
	"time"
	"unicode/utf8"
)

// FuzzHandle throws arbitrary bytes at a live connection handler: the
// server must never panic and must always terminate once the client
// side closes.
func FuzzHandle(f *testing.F) {
	f.Add([]byte("STAT\n"))
	f.Add([]byte("PUSH a mg\n4\nABCD"))
	f.Add([]byte("PULL nope\nRESET x\nQUIT\n"))
	f.Add([]byte{0, 1, 2, 0xff, '\n'})
	f.Fuzz(func(t *testing.T, data []byte) {
		s := New()
		client, srvSide := net.Pipe()
		done := make(chan struct{})
		go func() {
			defer close(done)
			s.handle(srvSide)
		}()
		client.SetDeadline(time.Now().Add(2 * time.Second))
		client.Write(data)
		// Drain whatever the server replies so it never blocks on
		// write, then hang up.
		go func() {
			buf := make([]byte, 4096)
			for {
				if _, err := client.Read(buf); err != nil {
					return
				}
			}
		}()
		client.Close()
		select {
		case <-done:
		case <-time.After(5 * time.Second):
			t.Fatal("handler did not terminate after close")
		}
	})
}

// FuzzCommandLine holds the in-place command line parse to references
// kept here: the fields are what bytes.FieldsFunc splits at ASCII
// white space — the first maxFields of them, aliasing the line — and a
// field names a verb exactly when strings.ToUpper spells one of it and
// the field is ASCII (verbs ignore ASCII case only, so "puſh", which
// ToUpper turns into PUSH, is no verb).
func FuzzCommandLine(f *testing.F) {
	for _, seed := range []string{
		"PUSH a mg\n", "pushb  a\tmg 3\r\n", "QwInC s 0 0\n", "\v\fSTAT\n",
		"PULL a b\n", "pull a\u0085b\n", "puſh a mg\n", "a b c d e f g\n",
		"metrics", "  \n", "",
	} {
		f.Add([]byte(seed))
	}
	space := func(r rune) bool { return strings.ContainsRune(" \t\n\v\f\r", r) }
	f.Fuzz(func(t *testing.T, line []byte) {
		ref := bytes.FieldsFunc(line, space)
		var buf [maxFields][]byte
		got := splitFields(buf[:0], line)
		if len(got) != min(len(ref), maxFields) {
			t.Fatalf("%q: %d fields, want %d", line, len(got), min(len(ref), maxFields))
		}
		for i, field := range got {
			if !bytes.Equal(field, ref[i]) {
				t.Fatalf("%q: field %d = %q, want %q", line, i, field, ref[i])
			}
		}
		for _, field := range ref {
			want := strings.ToUpper(string(field))
			ascii := !bytes.ContainsFunc(field, func(r rune) bool { return r >= utf8.RuneSelf })
			if !ascii || !slices.Contains(verbs[:], want) {
				want = ""
			}
			if v := verbOf(field); v != want {
				t.Fatalf("verbOf(%q) = %q, want %q", field, v, want)
			}
		}
	})
}
