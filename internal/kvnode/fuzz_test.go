package kvnode

import (
	"strings"
	"testing"
)

// fuzzConfigs are the server variants FuzzDispatch drives, selected by
// the fuzzer's first argument: the protections and software responses
// the Dispatch tests exercise.
var fuzzConfigs = []Config{
	{},
	{ECC: "secded"},
	{ECC: "parity", Recover: "parr"},
	{ECC: "chipkill", Recover: "retire"},
}

// replyVerbs are the first words of every legal protocol reply.
var replyVerbs = map[string]bool{
	"VALUE": true, "MISS": true, "STORED": true, "INJECTED": true,
	"STATS": true, "CLIENT_ERROR": true, "SERVER_ERROR": true,
}

// FuzzDispatch feeds each newline-separated line of the input to a fresh
// server's Dispatch — the untrusted network input of the protocol — and
// requires a single-line reply with a legal prefix, and no panic, for
// every line, including after injected errors land in the store.
func FuzzDispatch(f *testing.F) {
	for _, seed := range []string{
		"get 5\nset 5 3\nget 5\nget 9999",
		"inject soft\nstats",
		"\n   \nget\nget abc\nget -1\nset 1\nset a b\nset 1 99999999999999\ninject\ninject gamma\nfrobnicate",
		"inject soft\ninject soft\ninject hard\nget 7\nstats",
		"get 3\ninject soft\nget 3\nstats",
		"zz 1\nget 0x10\nget 1\nget " + strings.Repeat("9", 200),
		"set 18446744073709551615 4294967295\nget 18446744073709551615\r",
	} {
		for mode := range fuzzConfigs {
			f.Add(uint8(mode), seed)
		}
	}
	f.Fuzz(func(t *testing.T, mode uint8, input string) {
		cfg := fuzzConfigs[int(mode)%len(fuzzConfigs)]
		cfg.Keys, cfg.Seed = 64, 1
		srv, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		for _, line := range strings.Split(input, "\n") {
			resp := srv.Dispatch(line)
			if strings.ContainsAny(resp, "\r\n") {
				t.Fatalf("%q: multi-line reply %q", line, resp)
			}
			if verb, _, _ := strings.Cut(resp, " "); !replyVerbs[verb] {
				t.Fatalf("%q: reply %q has no protocol prefix", line, resp)
			}
		}
	})
}
