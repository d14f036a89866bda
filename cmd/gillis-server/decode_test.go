package main

import (
	"bytes"
	"encoding/json"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"gillis/internal/tensor"
)

// checkAgainstEncodingJSON is the decoder's contract: on any body it
// returns an error exactly when encoding/json's Decoder.Decode into a
// predictRequest does, and otherwise the same model, shape and float32 bit
// patterns — except where a limit of its own applies.
func checkAgainstEncodingJSON(t *testing.T, body []byte) {
	t.Helper()
	var want predictRequest
	wantErr := json.NewDecoder(bytes.NewReader(body)).Decode(&want)
	got, gotErr := decodePredictRequest(body, nil)
	if wantErr == nil && (len(want.Shape) > maxRank || len(want.Input) > maxElements) {
		if gotErr == nil {
			t.Fatalf("body %q: over a limit (rank %d, %d elements) but accepted", body, len(want.Shape), len(want.Input))
		}
		return
	}
	if (gotErr == nil) != (wantErr == nil) {
		t.Fatalf("body %q: decoder error %v, encoding/json error %v", body, gotErr, wantErr)
	}
	if wantErr != nil {
		return
	}
	if got.Model != want.Model {
		t.Fatalf("body %q: model %q, encoding/json %q", body, got.Model, want.Model)
	}
	if len(got.Shape) != len(want.Shape) || len(got.Input) != len(want.Input) {
		t.Fatalf("body %q: shape %v and %d inputs, encoding/json %v and %d", body, got.Shape, len(got.Input), want.Shape, len(want.Input))
	}
	for i := range want.Shape {
		if got.Shape[i] != want.Shape[i] {
			t.Fatalf("body %q: shape %v, encoding/json %v", body, got.Shape, want.Shape)
		}
	}
	for i := range want.Input {
		if math.Float32bits(got.Input[i]) != math.Float32bits(want.Input[i]) {
			t.Fatalf("body %q: input[%d] = %x, encoding/json %x", body, i, math.Float32bits(got.Input[i]), math.Float32bits(want.Input[i]))
		}
	}
}

// predictBodies are the seeds of the differential: one body per rule of
// encoding/json the decoder has to reproduce, and per way a body can be
// wrong.
var predictBodies = []string{
	`{"shape":[3,32,32],"input":[0.5,-1,2e-3]}`,
	`{"model":"rnn-tiny2","shape":[2],"input":[1,2]}`,
	` { "shape" : [ 1 , 2 ] , "input" : [ 1.5 ,	-0 ] } trailing`,
	"{\"shape\":[1]\r\n,\"input\":[1]}\n{\"shape\":[9]}",
	`{}`, `{ }`, `null`, ` null `, ``, `   `, `[]`, `7`, `"s"`, `true`, `{`, `{"shape"`, `{"shape":`, `{"shape":[`, `{"shape":[1`, `{"shape":[1]`,
	`{"SHAPE":[4],"Input":[1,2,3,4],"MODEL":"m"}`,
	`{"shape":[2],"input":[1,2]}`, "{\"ſhape\":[2],\"Key\":1}",
	`{"shape":[1],"shape":[2,3],"input":[1],"input":[]}`,
	`{"shape":[1],"shape":null,"input":null,"model":null}`,
	`{"shape":[null,2],"input":[null,1,null]}`,
	`{"extra":{"a":[1,{"b":null}],"c":"x\"y"},"shape":[1],"more":-1.5e3,"input":[1],"last":"z"}`,
	`{"extra":12}`, `{"extra":12`, `{"extra":tru}`, `{"extra":[1,]}`, `{"extra":"\x"}`, `{"extra":nul}`,
	`{"model":"a\né😀\"","shape":[1],"input":[1]}`, `{"model":"bad \x escape"}`, "{\"model\":\"raw\ncontrol\"}", "{\"model\":\"\xff\xfe\"}", `{"model":"unterminated`,
	`{"model":5}`, `{"model":["m"]}`, `{"shape":"3"}`, `{"shape":{"0":1}}`, `{"shape":[[1]]}`, `{"input":["1"]}`, `{"input":[true]}`, `{"input":[{}]}`,
	`{"shape":[1.0]}`, `{"shape":[1e2]}`, `{"shape":[-3]}`, `{"shape":[99999999999999999999]}`, `{"shape":[9223372036854775807]}`,
	`{"input":[1e38,3.4028235e38,-3.4028235e38]}`, `{"input":[3.4028236e38]}`, `{"input":[1e39]}`, `{"input":[1e-50,-1e-50,1e-45,1.17549435e-38]}`,
	`{"input":[0.1,0.30000001192092896,16777217,0.000000000000000000000000000000000000011754943508222875]}`,
	`{"input":[01]}`, `{"input":[1.]}`, `{"input":[.5]}`, `{"input":[+1]}`, `{"input":[-]}`, `{"input":[1e]}`, `{"input":[1e+]}`, `{"input":[0x10]}`, `{"input":[1_0]}`,
	`{"input":[NaN]}`, `{"input":[Infinity]}`, `{"input":[-inf]}`, `{"input":[nul]}`, `{"input":[nulll]}`,
	`{"input":[1 2]}`, `{"input":[1,,2]}`, `{"input":[1,]}`, `{"input":[,1]}`, `{"input":[1}`, `{"input":[1]]`, `{"input":[1],}`, `{"input" [1]}`, `{"input":[1] "shape":[1]}`, `{input:[1]}`, `{'input':[1]}`,
	`{"shape":[1,1,1,1,1,1,1,1],"input":[1]}`, `{"shape":[1,1,1,1,1,1,1,1,1],"input":[1]}`,
}

func TestDecodePredictRequestMatchesEncodingJSON(t *testing.T) {
	for _, body := range predictBodies {
		checkAgainstEncodingJSON(t, []byte(body))
	}
	// Every float32 the server may be sent, as encoding/json prints it.
	vals := []float32{0, float32(math.Copysign(0, -1)), 1, -1, math.MaxFloat32, -math.MaxFloat32,
		math.SmallestNonzeroFloat32, 1.17549435e-38, 0.1, 1e-7, 123456.79, 1e21, 1e-21}
	for bits := uint32(1); bits != 0; bits <<= 1 {
		if v := math.Float32frombits(bits | 0x3f000000); !math.IsNaN(float64(v)) && !math.IsInf(float64(v), 0) {
			vals = append(vals, v)
		}
	}
	body, err := json.Marshal(predictRequest{Shape: []int{len(vals)}, Input: vals})
	if err != nil {
		t.Fatal(err)
	}
	checkAgainstEncodingJSON(t, body)
}

// TestDecodePredictRequestLimits: an input array of maxElements is read, one
// more is refused, whether stage 2 of decoder.floats reaches the limit (plain
// zeros; the array at the limit is also checked against encoding/json) or
// the scalar path does (after an exponent in the first element).
func TestDecodePredictRequestLimits(t *testing.T) {
	for _, first := range []string{"0", "0e0"} {
		over := `{"input":[` + first + strings.Repeat(",0", maxElements) + `]}`
		if _, err := decodePredictRequest([]byte(over), nil); err == nil {
			t.Fatalf("%s first: %d elements accepted, limit is %d", first, maxElements+1, maxElements)
		}
		at := `{"input":[` + first + strings.Repeat(",0", maxElements-1) + `]}`
		req, err := decodePredictRequest([]byte(at), nil)
		if err != nil || len(req.Input) != maxElements {
			t.Fatalf("%s first: %d elements: got %d, error %v", first, maxElements, len(req.Input), err)
		}
		if first == "0" {
			checkAgainstEncodingJSON(t, []byte(at))
		}
	}
}

// oddTokens are array elements at the edge of what decoder.floats' stage 2
// reads: an exponent, a null, whitespace beside a comma, more than 15
// digits, a leading zero, a point without digits on one side, half-way
// decimals (2^23 + 1/2 and 2^24 + 1 lie half-way between two float32s), a
// string, a nested array, and signs and digits that are not a number, which
// it turns down for the scalar path to read from there on, and -0, which it
// reads itself.
var oddTokens = []string{"1e5", "-2.5E-3", "null", " 7", "7 ", "\n0.5", "12345678901234567", "0.1234567890123456",
	"-0", "01", "-00.5", "1.", ".5", "8388608.5", "-16777217", `"1"`, "[1]", "-", "+1", "1-2", "0.5.5", ""}

// plainTokens returns n array elements of the kinds clients send: float32s in
// their shortest form, as encoding/json prints them, small integers, and
// decimals of up to 15 digits.
func plainTokens(rng *rand.Rand, n int) []string {
	toks := make([]string, n)
	for i := range toks {
		switch rng.Intn(4) {
		case 0:
			toks[i] = strconv.FormatFloat(float64(rng.Float32()*2-1), 'f', -1, 32)
		case 1:
			toks[i] = strconv.FormatFloat(float64((rng.Float32()*2-1)*1000), 'f', -1, 32)
		case 2:
			toks[i] = strconv.Itoa(rng.Intn(2001) - 1000)
		default:
			toks[i] = strconv.FormatFloat((rng.Float64()*2-1)*1e6, 'f', rng.Intn(9), 64)
		}
	}
	return toks
}

// TestDecodeStagesMatchEncodingJSON is the differential where decoder.floats
// changes paths: an array that crosses a window edge at every byte offset mod
// 64, every odd token at every position of an array, arrays that end in a
// body's last sixteen bytes or are cut short there, and bodies so short that
// their tokens end in the first sixteen.
func TestDecodeStagesMatchEncodingJSON(t *testing.T) {
	rng := rand.New(rand.NewSource(39))
	body := func(pad int, toks []string, tail string) []byte {
		return []byte(`{"model":"` + strings.Repeat("m", pad) + `","input":[` + strings.Join(toks, ",") + tail)
	}
	long := plainTokens(rng, 2*window/8)
	for pad := range 64 {
		checkAgainstEncodingJSON(t, body(pad, long, "]}"))
	}
	short := plainTokens(rng, 40)
	for _, odd := range oddTokens {
		for at := 0; at <= len(short); at++ {
			checkAgainstEncodingJSON(t, body(at, slices.Insert(slices.Clone(short), at, odd), "]}"))
		}
	}
	for _, tail := range []string{"]}", "] }", "]" + strings.Repeat(" ", 14) + "}", "]", "}", "", ",]}", "]]}", "],\"shape\":[1]}"} {
		for n := 1; n <= 8; n++ {
			checkAgainstEncodingJSON(t, []byte(`{"input":[`+strings.Join(short[:n], ",")+tail))
			checkAgainstEncodingJSON(t, body(rng.Intn(64), short[:n], tail))
		}
	}
}

// TestPlainFloatReadsEncodedFloat32s: stage 2 of decoder.floats converts
// every number encoding/json prints for a float32 input like http_small's
// (tensor.Rand, [-1, 1)) itself, so such a body never takes the scalar path.
// The differentials cannot see a hand-over, only its cost.
func TestPlainFloatReadsEncodedFloat32s(t *testing.T) {
	x := tensor.Rand(rand.New(rand.NewSource(1)), 1, 3, 32, 32)
	body, err := json.Marshal(x.Data())
	if err != nil {
		t.Fatal(err)
	}
	i := 1
	for end, c := range body {
		if c != ',' && c != ']' {
			continue
		}
		if _, ok := plainFloat(body, i, end); !ok {
			t.Errorf("%s: handed over", body[i:end])
		}
		i = end + 1
	}
}

// TestDecodeAllocationFollowsElements: what the decoder reserves for the
// input array follows the elements it reads, so commas later in the body
// cost nothing. A one-number array followed by a megabyte of them, here in a
// string under an unknown key, allocates what skipping that string alone
// does; counting the commas up front reserved 4 MiB for the one float.
func TestDecodeAllocationFollowsElements(t *testing.T) {
	if raceOn {
		t.Skip("allocation budgets are the plain build's")
	}
	pad := `"pad":"` + strings.Repeat(",", 1<<20) + `"`
	allocated := func(body string) uint64 {
		least := uint64(math.MaxUint64)
		var before, after runtime.MemStats
		for range 3 {
			runtime.ReadMemStats(&before)
			if _, err := decodePredictRequest([]byte(body), nil); err != nil {
				t.Fatal(err)
			}
			runtime.ReadMemStats(&after)
			least = min(least, after.TotalAlloc-before.TotalAlloc)
		}
		return least
	}
	skip, withInput := allocated(`{`+pad+`}`), allocated(`{"input":[0],`+pad+`}`)
	t.Logf("skipping the padding allocates %d B; with a one-number array before it, %d B", skip, withInput)
	if withInput > skip+1024 {
		t.Errorf("a one-number array costs %d B", withInput-skip)
	}
}

// TestDecoderFloat32MatchesParseFloat is the differential of decoder.float32
// against strconv.ParseFloat(·, 32), which is what encoding/json runs: over
// five million number tokens, the same float32 bits, the same verdict, and the
// whole token consumed. The tokens are what a client sends (float32s in their
// shortest form, [-1,1) uniforms in plain decimals), what probes the fast
// path's limits (1 to 17 digits, exponents of both signs out to ±25), the
// edges of float32 (zeros, subnormals, the overflow threshold) and the one
// case the fast path must hand over: decimals within its limits whose float64
// is exactly half-way between two float32s, and their neighbours.
func TestDecoderFloat32MatchesParseFloat(t *testing.T) {
	// Under the race detector the full count is minutes of `make race`.
	short := testing.Short() || raceOn
	rounds := 520_000
	if short {
		rounds = 20_000
	}
	// This goroutine generates the tokens in order, in batches; GOMAXPROCS
	// workers check them.
	type batch struct {
		text []byte
		ends []int // token k is text[ends[k-1]:ends[k]]
	}
	workers := runtime.GOMAXPROCS(0)
	work := make(chan *batch, workers) // one queued per worker keeps all of them busy
	var failed atomic.Bool
	var checked, fast, halfway atomic.Int64
	var wg sync.WaitGroup
	for range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var n, nFast, nHalfway int64
			for b := range work {
				start := 0
				for _, end := range b.ends {
					if failed.Load() {
						break
					}
					tok := b.text[start:end]
					start = end
					want, wantErr := strconv.ParseFloat(string(tok), 32)
					d := decoder{data: tok}
					got, gotErr := d.float32()
					if (gotErr == nil) != (wantErr == nil) || math.Float32bits(got) != math.Float32bits(float32(want)) || d.i != len(tok) {
						t.Errorf("%s: decoder %x (%v) after %d of %d bytes, strconv %x (%v)", tok,
							math.Float32bits(got), gotErr, d.i, len(tok), math.Float32bits(float32(want)), wantErr)
						failed.Store(true)
					}
					n++
					if _, _, w, digits, e := scanNumber(tok); digits <= 15 && -22 <= e && e <= 22 {
						nFast++
						f := float64(w) * pow10[max(e, 0)] / pow10[max(-e, 0)]
						if math.Float64bits(f)&(1<<29-1) == 1<<28 {
							nHalfway++
						}
					}
				}
			}
			checked.Add(n)
			fast.Add(nFast)
			halfway.Add(nHalfway)
		}()
	}
	cur := new(batch)
	check := func(tok []byte) {
		cur.text = append(cur.text, tok...)
		if cur.ends = append(cur.ends, len(cur.text)); len(cur.ends) == 4096 {
			work <- cur
			cur = new(batch)
		}
	}
	for _, tok := range []string{"0", "-0", "0.0", "-0.000", "0e5", "-0E-7", "0e99999999999", "1e-46", "1e-45", "1.4e-45", "7e-46", "7.1e-46",
		"1.17549435e-38", "1.1754943e-38", "1.17549421e-38", "3.4028235e38", "3.4028234e38", "3.4028236e38", "3.40282357e38",
		"340282346638528859811704183484516925440", "340282356779733661637539395458142568447", "340282356779733661637539395458142568448",
		"1e22", "1e23", "1e-22", "1e-23", "999999999999999e22", "999999999999999e-22", "1000000000000000e22", "9007199254740993",
		"16777217", "16777217.0", "1.6777217e7", "16777217000e-3", "16777219", "0.5000000298023224", "1e10000", "-1e-10000", "1e99999"} {
		check([]byte(tok))
	}
	rng := rand.New(rand.NewSource(22))
	buf := make([]byte, 0, 64)
	digits := func(n int) {
		buf = append(buf, byte('1'+rng.Intn(9)))
		for i := 1; i < n; i++ {
			buf = append(buf, byte('0'+rng.Intn(10)))
		}
	}
	for r := 0; r < rounds && !failed.Load(); r++ {
		// A float32 bit pattern, as encoding/json and as %g print it.
		if f := math.Float32frombits(rng.Uint32()); !math.IsNaN(float64(f)) && !math.IsInf(float64(f), 0) {
			check(strconv.AppendFloat(buf[:0], float64(f), 'e', -1, 32))
			if a := math.Abs(float64(f)); a >= 1e-6 && a < 1e21 {
				check(strconv.AppendFloat(buf[:0], float64(f), 'f', -1, 32))
			}
		}
		// A uniform in [-1, 1): shortest float32 form, and a fixed number of
		// decimals.
		u := rng.Float32()*2 - 1
		check(strconv.AppendFloat(buf[:0], float64(u), 'f', -1, 32))
		check(strconv.AppendFloat(buf[:0], float64(u), 'f', 1+rng.Intn(17), 64))
		// 1 to 17 random digits with a point anywhere and an exponent of
		// either sign.
		buf = buf[:0]
		if rng.Intn(2) == 0 {
			buf = append(buf, '-')
		}
		n := 1 + rng.Intn(17)
		if point := rng.Intn(n + 1); point == 0 {
			buf = append(buf, '0', '.')
			for z := rng.Intn(4); z > 0; z-- {
				buf = append(buf, '0')
			}
			digits(n)
		} else if digits(point); point < n {
			buf = append(buf, '.')
			for i := point; i < n; i++ {
				buf = append(buf, byte('0'+rng.Intn(10)))
			}
		}
		if rng.Intn(3) > 0 {
			buf = append(buf, "eE"[rng.Intn(2)])
			if sign := rng.Intn(3); sign > 0 {
				buf = append(buf, "+-"[sign-1])
			}
			buf = strconv.AppendInt(buf, int64(rng.Intn(60)), 10)
			if buf[len(buf)-1] != '0' && rng.Intn(8) == 0 {
				buf = append(buf, '0') // ten times the exponent: out of every range
			}
		}
		check(buf)
		// The half-way point of two neighbouring float32s in [2^k, 2^(k+1)):
		// in full (a decimal of 15 digits or fewer for k from 4 to 49), nudged
		// in its last place, and cut to 15 digits and to 10–17 — one such cut
		// in ten is a different number that still rounds to the half-way
		// float64, where rounding twice goes wrong.
		k := rng.Intn(76) - 26
		lo := math.Float32frombits(uint32(127+k)<<23 | rng.Uint32()>>9)
		mid := (float64(lo) + float64(math.Nextafter32(lo, math.MaxFloat32))) / 2
		tok := strconv.AppendFloat(buf[:0], mid, 'f', -1, 64)
		check(tok)
		last := &tok[len(tok)-1]
		*last = '0' + (*last-'0'+1+byte(rng.Intn(8)))%10
		check(tok)
		check(strconv.AppendFloat(buf[:0], mid, 'e', 14, 64))
		check(strconv.AppendFloat(buf[:0], mid, 'e', 9+rng.Intn(8), 64))
		// The smallest and largest magnitudes: subnormals and the neighbours
		// of the overflow threshold.
		check(strconv.AppendFloat(buf[:0], float64(math.Float32frombits(rng.Uint32()>>9)), 'e', 2+rng.Intn(8), 64))
		check(strconv.AppendFloat(buf[:0], math.MaxFloat32*(1+(rng.Float64()-0.5)*1e-6), 'e', 5+rng.Intn(12), 64))
	}
	work <- cur
	close(work)
	wg.Wait()
	if t.Failed() {
		return
	}
	n, nFast, nHalfway := checked.Load(), fast.Load(), halfway.Load()
	if !short && n < 5_000_000 {
		t.Fatalf("%d tokens checked, want at least five million", n)
	}
	if nFast < n/4 || nHalfway < int64(rounds/4) {
		t.Fatalf("of %d tokens, only %d were within the fast path's limits and %d of those half-way", n, nFast, nHalfway)
	}
	t.Logf("%d tokens, %d within the fast path's limits, %d of those half-way between two float32s", n, nFast, nHalfway)
}

// FuzzPredictRequest is the same differential over mutated bodies.
func FuzzPredictRequest(f *testing.F) {
	for _, body := range predictBodies {
		f.Add([]byte(body))
	}
	// Arrays across window edges with odd tokens in the middle.
	toks := plainTokens(rand.New(rand.NewSource(1)), 2*window/8)
	f.Add([]byte(`{"shape":[3,32,32],"input":[` + strings.Join(slices.Insert(slices.Clone(toks), len(toks)/2, "1e-3", "null"), ",") + `]}`))
	f.Add([]byte(`{"input":[` + strings.Join(slices.Insert(toks, len(toks)/3, " -0.5", "01"), ",") + `],"shape":[512]}`))
	f.Fuzz(func(t *testing.T, body []byte) {
		checkAgainstEncodingJSON(t, body)
	})
}

// BenchmarkDecodePredictRequest times decodePredictRequest against
// encoding/json on resnet34's 3×224×224 body, and on its own on http_small's
// body (the demo model's 3×32×32 tensor.Rand input, seed 1, encoded as
// benchmark/ encodes it), decoding into one reused input buffer as the
// server does.
func BenchmarkDecodePredictRequest(b *testing.B) {
	vals := make([]float32, 3*224*224)
	for i := range vals {
		vals[i] = float32(i%977)/977 - 0.5
	}
	body, err := json.Marshal(predictRequest{Shape: []int{3, 224, 224}, Input: vals})
	if err != nil {
		b.Fatal(err)
	}
	x := tensor.Rand(rand.New(rand.NewSource(1)), 1, 3, 32, 32)
	small, err := json.Marshal(predictRequest{Shape: x.Shape(), Input: x.Data()})
	if err != nil {
		b.Fatal(err)
	}
	decode := func(body []byte) func(*testing.B) {
		return func(b *testing.B) {
			var input []float32
			for i := 0; i < b.N; i++ {
				req, err := decodePredictRequest(body, input)
				if err != nil {
					b.Fatal(err)
				}
				input = req.Input
			}
		}
	}
	b.Run("decoder", decode(body))
	b.Run("small", decode(small))
	b.Run("encoding-json", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			var req predictRequest
			if err := json.NewDecoder(bytes.NewReader(body)).Decode(&req); err != nil {
				b.Fatal(err)
			}
		}
	})
}
