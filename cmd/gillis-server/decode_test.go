package main

import (
	"bytes"
	"encoding/json"
	"math"
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
