/**
 * @file
 * Schema bindings between ConfigNode trees and the simulator's config
 * structs.
 *
 * A StructSchema<T> declares, for one struct, the scalar fields the
 * scenario layer can reach: key name, member pointer, unit, and
 * validation range.  The same declaration is used in both directions:
 *
 *  - apply():  parse a section's scalars into a struct instance with
 *              line-precise range/unit/unknown-key errors;
 *  - dump():   emit every bound field of a resolved struct as
 *              `key = value  # provenance` lines whose values reparse
 *              to the identical struct (canonical, unit-free numbers
 *              formatted with shortest-round-trip precision).
 *
 * Scalar tokens accept optional unit suffixes checked against the
 * field's declared unit: fractions take `%` (30% -> 0.30), durations
 * take ms/s/min/h/d, powers take W/kW/MW, frequencies take MHz/GHz.
 * Bare numbers are read in the field's canonical unit.
 */

#pragma once

#include <cstdint>
#include <functional>
#include <limits>
#include <ostream>
#include <set>
#include <string>
#include <vector>

#include "config/config_node.hh"
#include "sim/types.hh"

namespace polca::config {

/** Canonical unit of a numeric field. */
enum class Unit
{
    None,       ///< dimensionless number
    Fraction,   ///< 0.30 or 30%
    Seconds,    ///< 2, 2s, 500ms, 3min, 1.5h, 2d
    Watts,      ///< 250, 250W, 6.5kW
    Megahertz,  ///< 1275, 1275MHz, 1.41GHz
};

/** @name Raw-token parsing (shared by schema fields and the CLI) */
/** @{ */

/** Parse a numeric token with optional unit suffix into the
 *  canonical unit; returns false with a message on malformed input,
 *  unknown suffixes, or a suffix that contradicts @p unit. */
bool parseNumberToken(const std::string &raw, Unit unit, double &out,
                      std::string &err);

/** Strict integer parse (no units, no trailing garbage). */
bool parseIntToken(const std::string &raw, long long &out,
                   std::string &err);

/** "true"/"false" (also accepts 1/0). */
bool parseBoolToken(const std::string &raw, bool &out,
                    std::string &err);

/** Unquote a string token; bare unquoted tokens are accepted too. */
bool parseStringToken(const std::string &raw, std::string &out,
                      std::string &err);

/** Shortest-round-trip decimal formatting of a double. */
std::string formatDouble(double value);

/** @} */

/** One struct's scenario-reachable fields. */
template <typename T>
class StructSchema
{
  public:
    explicit StructSchema(std::string structName)
        : name_(std::move(structName))
    {}

    /** Bind a double field with range [min, max] in canonical
     *  units. */
    StructSchema &
    field(const std::string &key, double T::*member, Unit unit,
          double min, double max)
    {
        Field f;
        f.key = key;
        f.parse = [this, key, member, unit, min,
                   max](T &obj, const ConfigNode &scalar,
                        Diagnostics &diag) {
            double value = 0.0;
            std::string err;
            if (!parseNumberToken(scalar.raw, unit, value, err)) {
                diag.error(scalar.loc, name_ + "." + key + ": " + err);
                return false;
            }
            if (value < min || value > max) {
                diag.error(scalar.loc, name_ + "." + key + " = " +
                           formatDouble(value) + " out of range [" +
                           formatDouble(min) + ", " +
                           formatDouble(max) + "]");
                return false;
            }
            obj.*member = value;
            return true;
        };
        f.format = [member](const T &obj) {
            return formatDouble(obj.*member);
        };
        fields_.push_back(std::move(f));
        return *this;
    }

    /** Bind an integer-like field (int, size_t, uint32/64). */
    template <typename Int>
    StructSchema &
    intField(const std::string &key, Int T::*member, long long min,
             long long max)
    {
        Field f;
        f.key = key;
        f.parse = [this, key, member, min,
                   max](T &obj, const ConfigNode &scalar,
                        Diagnostics &diag) {
            long long value = 0;
            std::string err;
            if (!parseIntToken(scalar.raw, value, err)) {
                diag.error(scalar.loc, name_ + "." + key + ": " + err);
                return false;
            }
            if (value < min || value > max) {
                diag.error(scalar.loc, name_ + "." + key + " = " +
                           std::to_string(value) + " out of range [" +
                           std::to_string(min) + ", " +
                           std::to_string(max) + "]");
                return false;
            }
            obj.*member = static_cast<Int>(value);
            return true;
        };
        f.format = [member](const T &obj) {
            return std::to_string(
                static_cast<long long>(obj.*member));
        };
        fields_.push_back(std::move(f));
        return *this;
    }

    /** Bind a sim::Tick field; scenario values are durations
     *  (seconds by default, unit suffixes accepted), range given in
     *  seconds. */
    StructSchema &
    tickField(const std::string &key, sim::Tick T::*member,
              double minSeconds, double maxSeconds)
    {
        Field f;
        f.key = key;
        f.parse = [this, key, member, minSeconds,
                   maxSeconds](T &obj, const ConfigNode &scalar,
                               Diagnostics &diag) {
            double seconds = 0.0;
            std::string err;
            if (!parseNumberToken(scalar.raw, Unit::Seconds, seconds,
                                  err)) {
                diag.error(scalar.loc, name_ + "." + key + ": " + err);
                return false;
            }
            if (seconds < minSeconds || seconds > maxSeconds) {
                diag.error(scalar.loc, name_ + "." + key + " = " +
                           formatDouble(seconds) +
                           "s out of range [" +
                           formatDouble(minSeconds) + "s, " +
                           formatDouble(maxSeconds) + "s]");
                return false;
            }
            obj.*member = sim::secondsToTicks(seconds);
            return true;
        };
        f.format = [member](const T &obj) {
            return formatDouble(sim::ticksToSeconds(obj.*member));
        };
        fields_.push_back(std::move(f));
        return *this;
    }

    StructSchema &
    boolField(const std::string &key, bool T::*member)
    {
        Field f;
        f.key = key;
        f.parse = [this, key, member](T &obj,
                                      const ConfigNode &scalar,
                                      Diagnostics &diag) {
            bool value = false;
            std::string err;
            if (!parseBoolToken(scalar.raw, value, err)) {
                diag.error(scalar.loc, name_ + "." + key + ": " + err);
                return false;
            }
            obj.*member = value;
            return true;
        };
        f.format = [member](const T &obj) {
            return obj.*member ? "true" : "false";
        };
        fields_.push_back(std::move(f));
        return *this;
    }

    StructSchema &
    stringField(const std::string &key, std::string T::*member)
    {
        Field f;
        f.key = key;
        f.parse = [this, key, member](T &obj,
                                      const ConfigNode &scalar,
                                      Diagnostics &diag) {
            std::string value;
            std::string err;
            if (!parseStringToken(scalar.raw, value, err)) {
                diag.error(scalar.loc, name_ + "." + key + ": " + err);
                return false;
            }
            obj.*member = value;
            return true;
        };
        f.format = [member](const T &obj) {
            return quoteString(obj.*member);
        };
        fields_.push_back(std::move(f));
        return *this;
    }

    /** Bind an enum field by name list. */
    template <typename E>
    StructSchema &
    enumField(const std::string &key, E T::*member,
              std::vector<std::pair<std::string, E>> names)
    {
        Field f;
        f.key = key;
        f.parse = [this, key, member,
                   names](T &obj, const ConfigNode &scalar,
                          Diagnostics &diag) {
            std::string value;
            std::string err;
            if (!parseStringToken(scalar.raw, value, err)) {
                diag.error(scalar.loc, name_ + "." + key + ": " + err);
                return false;
            }
            for (const auto &[n, e] : names) {
                if (n == value) {
                    obj.*member = e;
                    return true;
                }
            }
            std::string known;
            for (const auto &[n, e] : names)
                known += (known.empty() ? "" : "|") + n;
            diag.error(scalar.loc, name_ + "." + key + ": unknown "
                       "value '" + value + "' (use " + known + ")");
            return false;
        };
        f.format = [member, names](const T &obj) {
            for (const auto &[n, e] : names) {
                if (e == obj.*member)
                    return quoteString(n);
            }
            return quoteString("?");
        };
        fields_.push_back(std::move(f));
        return *this;
    }

    /**
     * Apply a section's scalar entries onto @p obj.  Keys in
     * @p extraAllowed are skipped (they are consumed by the caller:
     * presets, nested sections).  Unknown keys error with a nearest-
     * key suggestion.  @return false when any entry failed.
     */
    bool
    apply(const ConfigNode &section, T &obj, Diagnostics &diag,
          const std::set<std::string> &extraAllowed = {}) const
    {
        bool ok = true;
        for (const auto &[key, node] : section.entries) {
            if (extraAllowed.count(key))
                continue;
            const Field *f = findField(key);
            if (!f) {
                std::vector<std::string> known = keys();
                known.insert(known.end(), extraAllowed.begin(),
                             extraAllowed.end());
                diag.error(node.loc, "unknown key '" + key +
                           "' in [" + name_ + "]" +
                           didYouMean(key, known));
                ok = false;
                continue;
            }
            if (node.kind != ConfigNode::Kind::Scalar) {
                diag.error(node.loc, name_ + "." + key +
                           ": expected a scalar value");
                ok = false;
                continue;
            }
            if (!f->parse(obj, node, diag))
                ok = false;
        }
        return ok;
    }

    /**
     * Emit `key = value  # provenance` lines for every bound field
     * but those in @p omit.  Provenance is the matching scalar's
     * origin in @p source (the effective source section for this
     * struct), @p fallbackOrigin for fields without a source entry.
     */
    void
    dump(const T &obj, const ConfigNode *source, std::ostream &os,
         const std::string &fallbackOrigin = "default",
         const std::set<std::string> &omit = {}) const
    {
        for (const Field &f : fields_) {
            if (omit.count(f.key))
                continue;
            std::string origin = fallbackOrigin;
            if (source) {
                if (const ConfigNode *node = source->find(f.key)) {
                    if (node->kind == ConfigNode::Kind::Scalar)
                        origin = node->origin;
                }
            }
            os << f.key << " = " << f.format(obj) << "  # " << origin
               << "\n";
        }
    }

    /** Canonically-formatted value of one field (tests). */
    std::string
    formatValue(const T &obj, const std::string &key) const
    {
        const Field *f = findField(key);
        return f ? f->format(obj) : std::string("<no such field>");
    }

    std::vector<std::string>
    keys() const
    {
        std::vector<std::string> out;
        out.reserve(fields_.size());
        for (const Field &f : fields_)
            out.push_back(f.key);
        return out;
    }

    const std::string &name() const { return name_; }

  private:
    struct Field
    {
        std::string key;
        std::function<bool(T &, const ConfigNode &, Diagnostics &)>
            parse;
        std::function<std::string(const T &)> format;
    };

    const Field *
    findField(const std::string &key) const
    {
        for (const Field &f : fields_) {
            if (f.key == key)
                return &f;
        }
        return nullptr;
    }

    std::string name_;
    std::vector<Field> fields_;
};

} // namespace polca::config

