//! Prometheus text escaping and name validation for the registry's
//! exposition output. JSON has no escaping helper: every JSON document
//! is a derived `Serialize` value rendered by `serde_json`
//! ([`crate::json_document`]).

/// Escapes a Prometheus `# HELP` line: backslashes and line feeds (the
/// exposition format's only two escapes in help text).
pub(crate) fn escape_help(s: &str) -> String {
    s.replace('\\', "\\\\").replace('\n', "\\n")
}

/// Escapes a Prometheus label value: backslashes, double quotes, and
/// line feeds, per the exposition-format spec.
pub(crate) fn escape_label_value(s: &str) -> String {
    s.replace('\\', "\\\\")
        .replace('"', "\\\"")
        .replace('\n', "\\n")
}

/// Whether `name` is a valid Prometheus metric name
/// (`[a-zA-Z_:][a-zA-Z0-9_:]*`).
pub fn is_valid_metric_name(name: &str) -> bool {
    let mut chars = name.chars();
    let Some(first) = chars.next() else {
        return false;
    };
    if !(first.is_ascii_alphabetic() || first == '_' || first == ':') {
        return false;
    }
    chars.all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':')
}

/// Whether `name` is a valid Prometheus label name
/// (`[a-zA-Z_][a-zA-Z0-9_]*`; colons are reserved for metric names).
pub fn is_valid_label_name(name: &str) -> bool {
    let mut chars = name.chars();
    let Some(first) = chars.next() else {
        return false;
    };
    if !(first.is_ascii_alphabetic() || first == '_') {
        return false;
    }
    chars.all(|c| c.is_ascii_alphanumeric() || c == '_')
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn help_escapes_backslash_and_newline_only() {
        assert_eq!(escape_help("a\\b\nc\"d"), "a\\\\b\\nc\"d");
    }

    #[test]
    fn label_value_escapes_the_three_specials() {
        assert_eq!(escape_label_value("a\\b\"c\nd"), "a\\\\b\\\"c\\nd");
    }

    #[test]
    fn metric_name_validation() {
        assert!(is_valid_metric_name("tep_published_total"));
        assert!(is_valid_metric_name("_x"));
        assert!(is_valid_metric_name("ns:metric"));
        assert!(!is_valid_metric_name(""));
        assert!(!is_valid_metric_name("9lives"));
        assert!(!is_valid_metric_name("has space"));
        assert!(!is_valid_metric_name("dash-ed"));
        assert!(!is_valid_metric_name("new\nline"));
    }

    #[test]
    fn label_name_validation() {
        assert!(is_valid_label_name("reason"));
        assert!(is_valid_label_name("_hidden"));
        assert!(!is_valid_label_name("ns:label"));
        assert!(!is_valid_label_name(""));
        assert!(!is_valid_label_name("1st"));
    }
}
