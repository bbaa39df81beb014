//! The one JSON encoder: `#[derive(Serialize)]` values through `serde_json`.

use serde::Serialize;

/// Renders `doc` as a JSON document: `serde_json`'s pretty layout
/// (two-space indent) plus a trailing newline. Floats print shortest
/// round-trip and non-finite ones as `null`, so rendering cannot fail.
pub fn json_document<T: Serialize + ?Sized>(doc: &T) -> String {
    let mut out = serde_json::to_string_pretty(doc).expect("plain data always serializes");
    out.push('\n');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn documents_are_pretty_and_newline_terminated() {
        assert_eq!(json_document(&vec![1u32]), "[\n  1\n]\n");
        assert_eq!(json_document(&[f64::NAN]), "[\n  null\n]\n");
    }
}
