package pack

import "testing"

func BenchmarkDecodeFixture(b *testing.B) {
	data, err := Encode(testSnapshot(b))
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(data)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Decode(data); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPackEncode is one cold write of the fixture pack into one slice.
func BenchmarkPackEncode(b *testing.B) {
	s := testSnapshot(b)
	data, err := Encode(s)
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(data)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Encode(s); err != nil {
			b.Fatal(err)
		}
	}
}
