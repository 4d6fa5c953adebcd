package sciborq

import (
	"testing"

	"sciborq/internal/sqlparse"
)

// Front-end benchmark: the cost of turning SQL text into an executable
// statement. The client-observed counterpart is sqlparse.parse_us in
// bench/baseline.json.

const parseBenchSQL = "SELECT COUNT(*), AVG(r) AS m FROM T WHERE ra BETWEEN 10 AND 14 AND dec > 20 LIMIT 100"

// BenchmarkParseCold is a full lex + parse of a representative
// SkyServer statement every iteration — what every request pays once.
func BenchmarkParseCold(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := sqlparse.Parse(parseBenchSQL); err != nil {
			b.Fatal(err)
		}
	}
}
