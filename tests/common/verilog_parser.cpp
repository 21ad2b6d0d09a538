#include "common/verilog_parser.hpp"

#include <algorithm>
#include <map>
#include <sstream>
#include <stdexcept>
#include <vector>

namespace vlcsa::netlist {

namespace {

struct ParseError : std::invalid_argument {
  ParseError(int line, const std::string& message)
      : std::invalid_argument("verilog parse error, line " + std::to_string(line) + ": " +
                              message) {}
};

/// Minimal cursor over one statement's text.
class Cursor {
 public:
  Cursor(std::string text, int line) : text_(std::move(text)), line_(line) {}

  void skip_ws() {
    while (pos_ < text_.size() && (text_[pos_] == ' ' || text_[pos_] == '\t')) ++pos_;
  }

  [[nodiscard]] bool at_end() {
    skip_ws();
    return pos_ >= text_.size();
  }

  [[nodiscard]] bool peek_is(char c) {
    skip_ws();
    return pos_ < text_.size() && text_[pos_] == c;
  }

  bool consume(char c) {
    skip_ws();
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  void expect(char c) {
    if (!consume(c)) fail(std::string("expected '") + c + "'");
  }

  /// Identifier, optionally with a "[idx]" suffix folded into the name.
  [[nodiscard]] std::string identifier() {
    skip_ws();
    const std::size_t start = pos_;
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      const bool ident = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                         (c >= '0' && c <= '9') || c == '_';
      if (!ident) break;
      ++pos_;
    }
    if (pos_ == start) fail("expected identifier");
    std::string name = text_.substr(start, pos_ - start);
    if (consume('[')) {
      name += '[' + std::to_string(number()) + ']';
      expect(']');
    }
    return name;
  }

  [[nodiscard]] int number() {
    skip_ws();
    const std::size_t start = pos_;
    while (pos_ < text_.size() && text_[pos_] >= '0' && text_[pos_] <= '9') ++pos_;
    if (pos_ == start) fail("expected number");
    return std::stoi(text_.substr(start, pos_ - start));
  }

  [[noreturn]] void fail(const std::string& message) const {
    throw ParseError(line_, message + " in: " + text_);
  }

  [[nodiscard]] int line() const { return line_; }

 private:
  std::string text_;
  int line_;
  std::size_t pos_ = 0;
};

class Parser {
 public:
  Netlist run(const std::string& text) {
    std::istringstream in(text);
    std::string raw;
    int line_no = 0;
    bool in_module = false;
    while (std::getline(in, raw)) {
      ++line_no;
      // Strip comments and whitespace.
      const auto comment = raw.find("//");
      if (comment != std::string::npos) raw.erase(comment);
      std::string line;
      for (const char c : raw) {
        if (c != '\r') line.push_back(c);
      }
      const auto first = line.find_first_not_of(" \t");
      if (first == std::string::npos) continue;
      const auto last = line.find_last_not_of(" \t");
      line = line.substr(first, last - first + 1);

      if (line.rfind("module", 0) == 0) {
        if (in_module) throw ParseError(line_no, "nested module");
        in_module = true;
        parse_module_header(line, line_no);
        continue;
      }
      if (line == "endmodule") {
        in_module = false;
        continue;
      }
      if (!in_module) throw ParseError(line_no, "statement outside module: " + line);
      if (line.rfind("input", 0) == 0 || line.rfind("output", 0) == 0) {
        parse_port_decl(line, line_no);
      } else if (line.rfind("wire", 0) == 0) {
        // Wires are implied by their defining assignment.
      } else if (line.rfind("assign", 0) == 0) {
        parse_assign(line, line_no);
      } else {
        throw ParseError(line_no, "unsupported statement: " + line);
      }
    }
    if (in_module) throw ParseError(line_no, "missing endmodule");
    // Register outputs in declaration order.
    for (const auto& name : output_order_) {
      const auto it = output_values_.find(name);
      if (it == output_values_.end()) {
        throw ParseError(line_no, "output never assigned: " + name);
      }
      nl_.add_output(name, it->second);
    }
    return std::move(nl_);
  }

 private:
  void parse_module_header(const std::string& line, int line_no) {
    const auto open = line.find('(');
    if (open == std::string::npos) throw ParseError(line_no, "malformed module header");
    std::string name = line.substr(6, open - 6);
    const auto first = name.find_first_not_of(" \t");
    const auto last = name.find_last_not_of(" \t");
    if (first == std::string::npos) throw ParseError(line_no, "missing module name");
    nl_.set_name(name.substr(first, last - first + 1));
  }

  void parse_port_decl(const std::string& line, int line_no) {
    const bool is_input = line.rfind("input", 0) == 0;
    Cursor cur(line.substr(is_input ? 5 : 6), line_no);
    int msb = -1;
    if (cur.consume('[')) {
      msb = cur.number();
      cur.expect(':');
      if (cur.number() != 0) cur.fail("vector ranges must end at 0");
      cur.expect(']');
    }
    // Base identifier without index suffix.
    const std::string base = cur.identifier();
    cur.expect(';');
    if (msb < 0) {
      declare_port(base, is_input);
    } else {
      for (int i = 0; i <= msb; ++i) {
        declare_port(base + '[' + std::to_string(i) + ']', is_input);
      }
    }
  }

  void declare_port(const std::string& name, bool is_input) {
    if (is_input) {
      signals_[name] = nl_.add_input(name);
    } else {
      output_order_.push_back(name);
    }
  }

  [[nodiscard]] Signal lookup(Cursor& cur, const std::string& name) {
    if (name == "1'b0" || name == "1'b1") {
      return nl_.constant(name == "1'b1");
    }
    const auto it = signals_.find(name);
    if (it == signals_.end()) cur.fail("use of undefined net " + name);
    return it->second;
  }

  /// Operand: constant literal or (possibly indexed) identifier.
  [[nodiscard]] Signal operand(Cursor& cur) {
    if (cur.peek_is('1')) {
      // 1'b0 / 1'b1
      (void)cur.number();
      cur.expect('\'');
      const std::string suffix = cur.identifier();  // b0 / b1
      if (suffix == "b0") return nl_.constant(false);
      if (suffix == "b1") return nl_.constant(true);
      cur.fail("unsupported literal 1'" + suffix);
    }
    return lookup(cur, cur.identifier());
  }

  void parse_assign(const std::string& line, int line_no) {
    Cursor cur(line.substr(6), line_no);  // past "assign"
    const std::string lhs = cur.identifier();
    cur.expect('=');

    Signal value{};
    bool negated_pair = false;
    if (cur.consume('~')) {
      if (cur.consume('(')) {
        // ~(a OP b)
        negated_pair = true;
        const Signal a = operand(cur);
        value = binary(cur, a, /*negated=*/true);
        cur.expect(')');
      } else {
        value = nl_.not_(operand(cur));
      }
    } else {
      const Signal first = operand(cur);
      if (cur.peek_is('&') || cur.peek_is('|') || cur.peek_is('^')) {
        value = binary_from(cur, first, /*negated=*/false);
      } else if (cur.consume('?')) {
        const Signal d1 = operand(cur);
        cur.expect(':');
        const Signal d0 = operand(cur);
        value = nl_.mux(first, d0, d1);
      } else {
        value = nl_.buf(first);
      }
    }
    (void)negated_pair;
    cur.expect(';');
    if (!cur.at_end()) cur.fail("trailing text");

    // LHS is either an internal wire (nX) or a declared output bit.
    const bool is_output = output_values_.count(lhs) > 0 ||
                           std::find(output_order_.begin(), output_order_.end(), lhs) !=
                               output_order_.end();
    if (is_output) {
      output_values_[lhs] = value;
    } else {
      if (signals_.count(lhs) > 0) cur.fail("net assigned twice: " + lhs);
      signals_[lhs] = value;
    }
  }

  [[nodiscard]] Signal binary(Cursor& cur, Signal a, bool negated) {
    return binary_from(cur, a, negated);
  }

  [[nodiscard]] Signal binary_from(Cursor& cur, Signal a, bool negated) {
    char op = 0;
    for (const char candidate : {'&', '|', '^'}) {
      if (cur.consume(candidate)) {
        op = candidate;
        break;
      }
    }
    if (op == 0) cur.fail("expected binary operator");
    const Signal b = operand(cur);
    switch (op) {
      case '&': return negated ? nl_.nand_(a, b) : nl_.and_(a, b);
      case '|': return negated ? nl_.nor_(a, b) : nl_.or_(a, b);
      default: return negated ? nl_.xnor_(a, b) : nl_.xor_(a, b);
    }
  }

  Netlist nl_;
  std::map<std::string, Signal> signals_;
  std::vector<std::string> output_order_;
  std::map<std::string, Signal> output_values_;
};

}  // namespace

Netlist parse_verilog(const std::string& text) { return Parser().run(text); }

}  // namespace vlcsa::netlist
