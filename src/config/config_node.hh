/**
 * @file
 * The typed configuration tree every scenario file parses into.
 *
 * A ConfigNode is one of three kinds:
 *  - Section: an ordered map of key -> child node ([row], [policy]);
 *  - Scalar:  a raw value token ("40", "2s", "30%", "\"polca\"");
 *  - List:    an ordered sequence of nodes ([1, 2, 3], [[policy.rules]]
 *             blocks, sweep axis values).
 *
 * Every node carries a SourceLoc (file:line) for line-precise error
 * reporting and an `origin` provenance string ("default", "file:line",
 * "cli", "sweep") so the fully-resolved effective configuration can be
 * dumped with per-value provenance and rerun byte-reproducibly.
 *
 * The file format is a TOML subset: `[section]` headers (dotted paths
 * nest), `[[section.list]]` array-of-tables headers, `key = value`
 * pairs, `#` comments, quoted strings, single-line lists with
 * `lo..hi` integer ranges (`seed = [1..8]`).  Keys are literal — a
 * dotted key like `policy.preset` inside `[sweep]` stays one key,
 * which is exactly what sweep axes need.
 */

#pragma once

#include <string>
#include <utility>
#include <vector>

namespace polca::config {

/** Where a node came from, for error messages. */
struct SourceLoc
{
    std::string file;
    int line = 0;

    /** "file:line", or "<unknown>" when unset. */
    std::string str() const;
};

/** Collects parse/binding errors instead of aborting. */
class Diagnostics
{
  public:
    /** Record an error anchored at @p loc. */
    void error(const SourceLoc &loc, const std::string &msg);

    /** Record an error with no source anchor. */
    void error(const std::string &msg);

    bool ok() const { return errors_.empty(); }
    const std::vector<std::string> &errors() const { return errors_; }

    /** All errors joined with newlines. */
    std::string str() const;

  private:
    std::vector<std::string> errors_;
};

/** One node of the configuration tree. */
struct ConfigNode
{
    enum class Kind
    {
        Section,
        Scalar,
        List,
    };

    Kind kind = Kind::Section;
    SourceLoc loc;

    /** Provenance: "default", "<file>:<line>", "cli", "sweep", or a
     *  preset tag such as "preset:blackout". */
    std::string origin = "default";

    /** Scalar: the raw value token, quotes preserved for strings. */
    std::string raw;

    /** List elements. */
    std::vector<ConfigNode> items;

    /** Section entries, in declaration order. */
    std::vector<std::pair<std::string, ConfigNode>> entries;

    /** @name Section access */
    /** @{ */
    [[nodiscard]] bool has(const std::string &key) const;
    [[nodiscard]] const ConfigNode *find(const std::string &key) const;
    [[nodiscard]] ConfigNode *find(const std::string &key);

    /** Child node at a dotted path ("row.server.gpu"); null when any
     *  segment is missing or a non-section intervenes. */
    [[nodiscard]] const ConfigNode *findPath(const std::string &dotted) const;

    /** Get-or-create the Section child @p key (must not exist as a
     *  scalar/list). */
    ConfigNode &obtainSection(const std::string &key);

    /** Insert or replace entry @p key. */
    void set(const std::string &key, ConfigNode node);

    /**
     * Set a scalar at a dotted path, creating intermediate sections.
     * @return false (and reports to @p diag) when an intermediate
     * node exists but is not a section.
     */
    bool setPath(const std::string &dotted, ConfigNode scalar,
                 Diagnostics &diag);

    [[nodiscard]] std::vector<std::string> keys() const;
    /** @} */
};

/** Make a Scalar node. */
ConfigNode makeScalar(std::string raw, std::string origin,
                      SourceLoc loc = {});

/** Quote and escape a string for scalar storage / dumping. */
std::string quoteString(const std::string &value);

/**
 * Parse scenario-file text.  @p filename is used only for error
 * messages and provenance.  Returns the root section; on parse errors
 * the partial tree is returned and @p diag carries line-precise
 * messages.
 */
ConfigNode parseConfigString(const std::string &text,
                             const std::string &filename,
                             Diagnostics &diag);

/** Parse a scenario file from disk. */
ConfigNode parseConfigFile(const std::string &path, Diagnostics &diag);

/**
 * Nearest string to @p key among @p candidates by edit distance, for
 * "did you mean" suggestions; empty when nothing is close (distance
 * greater than half the key length, minimum 2).
 */
std::string nearestKey(const std::string &key,
                       const std::vector<std::string> &candidates);

/** " (did you mean '<nearest>'?)" for @p key among @p candidates, or
 *  "" when nothing is close (nearestKey()). */
std::string didYouMean(const std::string &key,
                       const std::vector<std::string> &candidates);

} // namespace polca::config

