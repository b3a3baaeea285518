//! Field extraction from the serving plane's flat JSON answers and
//! `/tracez` records.
//!
//! `ppm_obs::Json::parse` re-validates the rest of the document as
//! UTF-8 for every character of every string, which is quadratic in
//! the document's size: a 20 000-record `/tracez` document takes
//! minutes. These two functions read the fixed shapes the server emits
//! in one pass instead.

/// The top-level `{…}` objects in `text` (typically an array's
/// contents), skipping braces inside strings.
pub fn objects(text: &str) -> Vec<&str> {
    let mut out = Vec::new();
    let (mut depth, mut start) = (0usize, 0usize);
    let (mut in_string, mut escaped) = (false, false);
    for (i, b) in text.bytes().enumerate() {
        if in_string {
            match b {
                _ if escaped => escaped = false,
                b'\\' => escaped = true,
                b'"' => in_string = false,
                _ => {}
            }
            continue;
        }
        match b {
            b'"' => in_string = true,
            b'{' => {
                if depth == 0 {
                    start = i;
                }
                depth += 1;
            }
            b'}' if depth > 0 => {
                depth -= 1;
                if depth == 0 {
                    out.push(&text[start..=i]);
                }
            }
            _ => {}
        }
    }
    out
}

/// The raw value of the first `"key":` in `obj`: a string's contents
/// (escapes left as they are), or a number or literal token.
pub fn field<'a>(obj: &'a str, key: &str) -> Option<&'a str> {
    let pattern = format!("\"{key}\":");
    let at = obj.find(&pattern)? + pattern.len();
    let rest = obj[at..].trim_start();
    if let Some(s) = rest.strip_prefix('"') {
        let mut escaped = false;
        for (i, b) in s.bytes().enumerate() {
            match b {
                _ if escaped => escaped = false,
                b'\\' => escaped = true,
                b'"' => return Some(&s[..i]),
                _ => {}
            }
        }
        return None;
    }
    let end = rest.find([',', '}', ']']).unwrap_or(rest.len());
    Some(rest[..end].trim())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splits_objects_and_reads_fields() {
        let text = r#"[{"a":"x}{","n":1,"in":{"b":2}}, {"a":"q\"uote","n":-2.5e3,"ok":true}]"#;
        let objs = objects(text);
        assert_eq!(objs.len(), 2);
        assert_eq!(field(objs[0], "a"), Some("x}{"));
        assert_eq!(field(objs[0], "n"), Some("1"));
        assert_eq!(field(objs[0], "b"), Some("2"));
        assert_eq!(field(objs[1], "a"), Some(r#"q\"uote"#));
        assert_eq!(field(objs[1], "n"), Some("-2.5e3"));
        assert_eq!(field(objs[1], "ok"), Some("true"));
        assert_eq!(field(objs[1], "missing"), None);
    }
}
