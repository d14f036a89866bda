package main

import (
	"bytes"
	"encoding/json"
	"math"
	"math/rand"
	"strconv"
	"strings"
	"testing"
)

// checkAgainstEncodingJSON is the decoder's contract: on any body it
// returns an error exactly when encoding/json's Decoder.Decode into a
// predictRequest does, and otherwise the same model, shape and float32 bit
// patterns — except where a limit of its own applies.
func checkAgainstEncodingJSON(t *testing.T, body []byte) {
	t.Helper()
	var want predictRequest
	wantErr := json.NewDecoder(bytes.NewReader(body)).Decode(&want)
	got, gotErr := decodePredictRequest(body)
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

func TestDecodePredictRequestLimits(t *testing.T) {
	over := `{"input":[` + strings.Repeat("0,", maxElements) + `0]}`
	if _, err := decodePredictRequest([]byte(over)); err == nil {
		t.Fatalf("%d elements accepted, limit is %d", maxElements+1, maxElements)
	}
	at := `{"input":[` + strings.Repeat("0,", maxElements-1) + `0]}`
	req, err := decodePredictRequest([]byte(at))
	if err != nil || len(req.Input) != maxElements {
		t.Fatalf("%d elements: got %d, error %v", maxElements, len(req.Input), err)
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
	// One goroutine gives the race detector nothing to check here, and it
	// makes the full count a minute of `make race`.
	short := testing.Short() || raceOn
	rounds := 520_000
	if short {
		rounds = 20_000
	}
	checked, fast, halfway := 0, 0, 0
	check := func(tok []byte) {
		t.Helper()
		want, wantErr := strconv.ParseFloat(string(tok), 32)
		d := decoder{data: tok}
		got, gotErr := d.float32()
		if (gotErr == nil) != (wantErr == nil) || math.Float32bits(got) != math.Float32bits(float32(want)) || d.i != len(tok) {
			t.Fatalf("%s: decoder %x (%v) after %d of %d bytes, strconv %x (%v)", tok,
				math.Float32bits(got), gotErr, d.i, len(tok), math.Float32bits(float32(want)), wantErr)
		}
		checked++
		if _, _, w, digits, e := scanNumber(tok); digits <= 15 && -22 <= e && e <= 22 {
			fast++
			f := float64(w) * pow10[max(e, 0)] / pow10[max(-e, 0)]
			if math.Float64bits(f)&(1<<29-1) == 1<<28 {
				halfway++
			}
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
	for r := 0; r < rounds; r++ {
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
	if !short && checked < 5_000_000 {
		t.Fatalf("%d tokens checked, want at least five million", checked)
	}
	if fast < checked/4 || halfway < rounds/4 {
		t.Fatalf("of %d tokens, only %d were within the fast path's limits and %d of those half-way", checked, fast, halfway)
	}
	t.Logf("%d tokens, %d within the fast path's limits, %d of those half-way between two float32s", checked, fast, halfway)
}

// FuzzPredictRequest is the same differential over mutated bodies.
func FuzzPredictRequest(f *testing.F) {
	for _, body := range predictBodies {
		f.Add([]byte(body))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		checkAgainstEncodingJSON(t, body)
	})
}

func BenchmarkDecodePredictRequest(b *testing.B) {
	vals := make([]float32, 3*224*224)
	for i := range vals {
		vals[i] = float32(i%977)/977 - 0.5
	}
	body, err := json.Marshal(predictRequest{Shape: []int{3, 224, 224}, Input: vals})
	if err != nil {
		b.Fatal(err)
	}
	b.Run("decoder", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := decodePredictRequest(body); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("encoding-json", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			var req predictRequest
			if err := json.NewDecoder(bytes.NewReader(body)).Decode(&req); err != nil {
				b.Fatal(err)
			}
		}
	})
}
