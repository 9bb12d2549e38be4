/**
 * @file
 * Shared JSON support: escaping, a streaming writer and a strict
 * parser.
 *
 * Every JSON producer in the tree (the analyzer's json/sarif
 * renderers, the report library, the benchmarks' BENCH_*.json files
 * and the ujam-serve protocol) goes through this one writer, so
 * escaping and number formatting behave identically everywhere. The
 * parser is the service protocol's front door and is written to
 * survive arbitrary bytes: it never throws, reports errors by
 * message, and bounds both nesting depth and numeric forms.
 */

#ifndef UJAM_SUPPORT_JSON_HH
#define UJAM_SUPPORT_JSON_HH

#include <cstdint>
#include <optional>
#include <string>
#include <utility>
#include <vector>

namespace ujam
{

/** @return text with ", \, and control characters JSON-escaped. */
std::string jsonEscape(const std::string &text);

/** @return text escaped and wrapped in double quotes. */
std::string jsonQuote(const std::string &text);

/**
 * A forward-only JSON builder with automatic comma placement.
 *
 * Output is compact (single line, no spaces after separators beyond
 * one after ':') unless indentation is requested at construction.
 * The writer does not validate call order beyond what the comma
 * machinery needs; callers are expected to emit well-formed
 * sequences (begin/end pairs balanced, key before every object
 * value).
 */
class JsonWriter
{
  public:
    /** @param indent Spaces per nesting level; 0 = compact one-line. */
    explicit JsonWriter(int indent = 0) : indent_(indent) {}

    JsonWriter &beginObject();
    JsonWriter &endObject();
    JsonWriter &beginArray();
    JsonWriter &endArray();

    /** Emit an object key; the next value call is its value. */
    JsonWriter &key(const std::string &name);

    JsonWriter &value(const std::string &text);
    JsonWriter &value(const char *text);
    JsonWriter &value(bool b);
    JsonWriter &value(int v);
    JsonWriter &value(unsigned v);
    JsonWriter &value(std::int64_t v);
    JsonWriter &value(std::uint64_t v);
    /** Shortest round-trip rendering (std::to_chars). */
    JsonWriter &value(double v);
    /** Fixed-point rendering, e.g. valueFixed(t, 6) for seconds. */
    JsonWriter &valueFixed(double v, int places);
    JsonWriter &nullValue();

    /** Splice pre-rendered JSON verbatim as one value. */
    JsonWriter &rawValue(const std::string &json);

    /** Shorthand: key(name) followed by value(v). */
    template <typename T>
    JsonWriter &
    field(const std::string &name, const T &v)
    {
        key(name);
        return value(v);
    }

    /** @return The text built so far (valid once balanced). */
    const std::string &str() const { return out_; }

  private:
    void beforeValue();
    void newline();

    std::string out_;
    std::vector<bool> hasItems_; //!< per open container
    bool pendingKey_ = false;
    int indent_ = 0;
};

/**
 * A parsed JSON document node.
 *
 * Object member order is preserved; find() returns the first match.
 */
struct JsonValue
{
    enum class Kind
    {
        Null,
        Bool,
        Number,
        String,
        Array,
        Object
    };

    Kind kind = Kind::Null;
    bool boolValue = false;
    double numberValue = 0.0;
    std::string stringValue;
    std::vector<JsonValue> elements;                       //!< arrays
    std::vector<std::pair<std::string, JsonValue>> members; //!< objects

    bool isBool() const { return kind == Kind::Bool; }
    bool isNumber() const { return kind == Kind::Number; }
    bool isString() const { return kind == Kind::String; }
    bool isArray() const { return kind == Kind::Array; }
    bool isObject() const { return kind == Kind::Object; }

    /** @return The member named key, or nullptr (objects only). */
    const JsonValue *find(const std::string &key) const;

    /** @return The number as an integer iff it is exactly integral. */
    std::optional<std::int64_t> asInt() const;
};

/** Outcome of parseJson: a value or a positioned error message. */
struct JsonParseResult
{
    std::optional<JsonValue> value;
    std::string error; //!< non-empty iff value is empty

    bool ok() const { return value.has_value(); }
};

/**
 * Parse one JSON document.
 *
 * Strict RFC 8259 grammar (no comments, no trailing commas, no bare
 * NaN/Infinity); input after the document is an error. Never throws.
 *
 * @param text      The document bytes.
 * @param max_depth Nesting bound; exceeding it is a parse error.
 */
JsonParseResult parseJson(const std::string &text,
                          std::size_t max_depth = 64);

} // namespace ujam

#endif // UJAM_SUPPORT_JSON_HH
