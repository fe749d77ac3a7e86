//! CI sanity check for benchmark artifacts: every `BENCH_*.json` at the
//! workspace root must be valid JSON of the tracked report shape —
//! a root object with a `benchmarks` array of `{ "id": string,
//! "ns_per_iter": number }` entries, non-empty, with unique ids.
//!
//! Usage: `cargo run -p unn-bench --bin check_bench_json [paths…]`
//! (no paths = scan the workspace root). Exits non-zero on the first
//! malformed artifact, so the CI bench-smoke job fails loudly instead of
//! uploading a corrupt report.

use std::path::{Path, PathBuf};
use std::process::ExitCode;

/// Minimal JSON value model (no external deps in this workspace).
#[derive(Debug)]
enum Json {
    Null,
    Bool,
    Number(f64),
    String(String),
    Array(Vec<Json>),
    Object(Vec<(String, Json)>),
}

impl Json {
    fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Object(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }
}

struct JsonParser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> JsonParser<'a> {
    fn new(src: &'a str) -> Self {
        JsonParser {
            bytes: src.as_bytes(),
            pos: 0,
        }
    }

    fn error(&self, msg: &str) -> String {
        format!("{msg} at byte {}", self.pos)
    }

    fn skip_ws(&mut self) {
        while self
            .bytes
            .get(self.pos)
            .map(|b| b.is_ascii_whitespace())
            .unwrap_or(false)
        {
            self.pos += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn eat(&mut self, b: u8, what: &str) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.error(&format!("expected {what}")))
        }
    }

    fn eat_literal(&mut self, lit: &str) -> Result<(), String> {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(())
        } else {
            Err(self.error(&format!("expected '{lit}'")))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        self.skip_ws();
        match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => Ok(Json::String(self.string()?)),
            Some(b't') => self.eat_literal("true").map(|()| Json::Bool),
            Some(b'f') => self.eat_literal("false").map(|()| Json::Bool),
            Some(b'n') => self.eat_literal("null").map(|()| Json::Null),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            _ => Err(self.error("expected a JSON value")),
        }
    }

    fn object(&mut self) -> Result<Json, String> {
        self.eat(b'{', "'{'")?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Object(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.eat(b':', "':'")?;
            let value = self.value()?;
            fields.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Object(fields));
                }
                _ => return Err(self.error("expected ',' or '}'")),
            }
        }
    }

    fn array(&mut self) -> Result<Json, String> {
        self.eat(b'[', "'['")?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Array(items));
        }
        loop {
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Array(items));
                }
                _ => return Err(self.error("expected ',' or ']'")),
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.eat(b'"', "'\"'")?;
        let mut out = String::new();
        loop {
            match self.peek() {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let esc = self.peek().ok_or_else(|| self.error("dangling escape"))?;
                    let decoded = match esc {
                        b'"' => '"',
                        b'\\' => '\\',
                        b'/' => '/',
                        b'n' => '\n',
                        b't' => '\t',
                        b'r' => '\r',
                        b'b' => '\u{8}',
                        b'f' => '\u{c}',
                        b'u' => {
                            let hex = self
                                .bytes
                                .get(self.pos + 1..self.pos + 5)
                                .ok_or_else(|| self.error("truncated \\u escape"))?;
                            let code = u32::from_str_radix(
                                std::str::from_utf8(hex)
                                    .map_err(|_| self.error("bad \\u escape"))?,
                                16,
                            )
                            .map_err(|_| self.error("bad \\u escape"))?;
                            self.pos += 4;
                            char::from_u32(code).unwrap_or('\u{fffd}')
                        }
                        _ => return Err(self.error("unknown escape")),
                    };
                    out.push(decoded);
                    self.pos += 1;
                }
                Some(_) => {
                    // Copy the raw UTF-8 byte run up to the next quote or
                    // escape.
                    let start = self.pos;
                    while matches!(self.peek(), Some(c) if c != b'"' && c != b'\\') {
                        self.pos += 1;
                    }
                    out.push_str(
                        std::str::from_utf8(&self.bytes[start..self.pos])
                            .map_err(|_| self.error("invalid UTF-8"))?,
                    );
                }
                None => return Err(self.error("unterminated string")),
            }
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        while matches!(
            self.peek(),
            Some(c) if c.is_ascii_digit() || matches!(c, b'-' | b'+' | b'.' | b'e' | b'E')
        ) {
            self.pos += 1;
        }
        std::str::from_utf8(&self.bytes[start..self.pos])
            .ok()
            .and_then(|s| s.parse::<f64>().ok())
            .map(Json::Number)
            .ok_or_else(|| self.error("malformed number"))
    }

    fn parse(mut self) -> Result<Json, String> {
        let v = self.value()?;
        self.skip_ws();
        if self.pos != self.bytes.len() {
            return Err(self.error("trailing content"));
        }
        Ok(v)
    }
}

/// Benchmark groups a tracked report must contain (matched as whole
/// `/`-delimited id segments, so `naive_threshold` cannot satisfy the
/// `naive` requirement): a regeneration that silently drops one of
/// these rows fails CI instead of shipping an artifact that no longer
/// tracks the number it gates on.
const REQUIRED_GROUPS: &[(&str, &[&str])] = &[
    (
        "BENCH_continuous_queries.json",
        &[
            "maintain_far",
            "maintain_near",
            "naive",
            "maintain_threshold",
            "naive_threshold",
            "maintain_rnn",
            "naive_rnn",
            "push_fanout",
        ],
    ),
    (
        "BENCH_probability_kernels.json",
        &["column_scalar", "column_batched", "rows_full"],
    ),
    (
        "BENCH_fanout.json",
        &[
            "watch_p50",
            "watch_p99",
            "register_shared_p99",
            "city_maintain_100",
            "city_maintain_10k",
            "city_multiwriter_10k",
        ],
    ),
    (
        "BENCH_durability.json",
        &["no_wal", "always", "every8", "os", "replay"],
    ),
    (
        "BENCH_telemetry.json",
        &["bare", "metrics_on", "trace_on", "snapshot", "render"],
    ),
];

/// Ratio gates a tracked report must hold: the benchmark whose id
/// contains the first group (as a whole `/`-delimited segment) must
/// stay within `max_ratio` of the one containing the second. These are
/// the repo's quantified overhead claims — a regeneration that breaks
/// one fails CI instead of silently shipping a report that no longer
/// supports the number the docs cite.
const RATIO_GATES: &[(&str, &str, &str, f64)] = &[
    // Observability is effectively free: metrics recording within 5%
    // of the uninstrumented commit path, tracing within 15%
    // (docs/OBSERVABILITY.md).
    ("BENCH_telemetry.json", "metrics_on", "bare", 1.05),
    ("BENCH_telemetry.json", "trace_on", "bare", 1.15),
    // The guard index keeps a far-churn round O(affected): at 10k
    // standing queries within 10x of the 100-subscription round
    // (docs/OPERATIONS.md, the `fanout` bench).
    (
        "BENCH_fanout.json",
        "city_maintain_10k",
        "city_maintain_100",
        10.0,
    ),
];

/// Validates one report file, returning the number of benchmark entries.
fn check_report(path: &Path) -> Result<usize, String> {
    let src = std::fs::read_to_string(path).map_err(|e| format!("unreadable: {e}"))?;
    let root = JsonParser::new(&src).parse()?;
    let benchmarks = match root.get("benchmarks") {
        Some(Json::Array(items)) => items,
        Some(_) => return Err("'benchmarks' is not an array".to_string()),
        None => return Err("missing 'benchmarks' array".to_string()),
    };
    if benchmarks.is_empty() {
        return Err("'benchmarks' is empty".to_string());
    }
    let mut seen = std::collections::BTreeSet::new();
    let mut values: Vec<(String, f64)> = Vec::new();
    for (i, entry) in benchmarks.iter().enumerate() {
        let id = match entry.get("id") {
            Some(Json::String(s)) if !s.is_empty() => s,
            _ => return Err(format!("entry {i}: missing or empty string 'id'")),
        };
        if !seen.insert(id.clone()) {
            return Err(format!("entry {i}: duplicate id '{id}'"));
        }
        match entry.get("ns_per_iter") {
            Some(Json::Number(n)) if n.is_finite() && *n > 0.0 => {
                values.push((id.clone(), *n));
            }
            Some(Json::Number(n)) => {
                return Err(format!("entry {i} ('{id}'): non-positive ns_per_iter {n}"))
            }
            _ => return Err(format!("entry {i} ('{id}'): missing numeric 'ns_per_iter'")),
        }
    }
    let file_name = path.file_name().and_then(|n| n.to_str()).unwrap_or("");
    if let Some((_, groups)) = REQUIRED_GROUPS.iter().find(|(f, _)| *f == file_name) {
        for group in *groups {
            let present = seen
                .iter()
                .any(|id| id.split('/').any(|segment| segment == *group));
            if !present {
                return Err(format!("missing required benchmark group '{group}'"));
            }
        }
    }
    for (_, num, den, max_ratio) in RATIO_GATES.iter().filter(|(f, ..)| *f == file_name) {
        let find = |group: &str| {
            values
                .iter()
                .find(|(id, _)| id.split('/').any(|segment| segment == group))
                .map(|(_, v)| *v)
        };
        match (find(num), find(den)) {
            (Some(n), Some(d)) => {
                if n > d * max_ratio {
                    return Err(format!(
                        "ratio gate failed: '{num}' ({n:.1} ns) exceeds \
                         {max_ratio}x '{den}' ({d:.1} ns)"
                    ));
                }
            }
            _ => {
                return Err(format!(
                    "ratio gate '{num}' vs '{den}': a gated group is missing"
                ))
            }
        }
    }
    Ok(benchmarks.len())
}

fn workspace_root() -> PathBuf {
    let mut root = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    root.pop();
    root.pop();
    root
}

fn main() -> ExitCode {
    let args: Vec<PathBuf> = std::env::args().skip(1).map(PathBuf::from).collect();
    let targets: Vec<PathBuf> = if args.is_empty() {
        let root = workspace_root();
        let mut found: Vec<PathBuf> = match std::fs::read_dir(&root) {
            Ok(entries) => entries
                .filter_map(|e| e.ok())
                .map(|e| e.path())
                .filter(|p| {
                    p.file_name()
                        .and_then(|n| n.to_str())
                        .map(|n| n.starts_with("BENCH_") && n.ends_with(".json"))
                        .unwrap_or(false)
                })
                .collect(),
            Err(e) => {
                eprintln!("cannot scan {}: {e}", root.display());
                return ExitCode::FAILURE;
            }
        };
        found.sort();
        found
    } else {
        args
    };
    if targets.is_empty() {
        eprintln!("no BENCH_*.json artifacts found");
        return ExitCode::FAILURE;
    }
    let mut failed = false;
    for path in &targets {
        match check_report(path) {
            Ok(n) => println!("ok    {} ({n} benchmarks)", path.display()),
            Err(e) => {
                eprintln!("FAIL  {}: {e}", path.display());
                failed = true;
            }
        }
    }
    if failed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}
