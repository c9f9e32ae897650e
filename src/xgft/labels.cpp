#include "xgft/labels.hpp"

#include <sstream>
#include <stdexcept>

namespace xgft {

std::string Label::toString() const {
  std::ostringstream os;
  os << "<";
  for (std::uint32_t i = height(); i >= 1; --i) {
    os << (i <= level_ ? "W" : "M") << i << "=" << digit(i);
    if (i > 1) os << ",";
  }
  os << ">";
  return os.str();
}

Label labelOf(const Params& p, std::uint32_t level, NodeIndex index) {
  if (level > p.height()) {
    throw std::out_of_range("labelOf: level out of range");
  }
  if (index >= p.nodesAtLevel(level)) {
    throw std::out_of_range("labelOf: node index out of range for level");
  }
  std::vector<std::uint32_t> digits(p.height());
  NodeIndex rest = index;
  for (std::uint32_t i = 1; i <= p.height(); ++i) {
    const std::uint32_t r = Label::radix(p, level, i);
    digits[i - 1] = static_cast<std::uint32_t>(rest % r);
    rest /= r;
  }
  return Label(level, std::move(digits));
}

NodeIndex indexOf(const Params& p, const Label& label) {
  if (label.height() != p.height()) {
    throw std::invalid_argument("indexOf: label height mismatch");
  }
  NodeIndex index = 0;
  for (std::uint32_t i = p.height(); i >= 1; --i) {
    const std::uint32_t r = Label::radix(p, label.level(), i);
    const std::uint32_t d = label.digit(i);
    if (d >= r) {
      throw std::invalid_argument("indexOf: digit " + std::to_string(i) +
                                  " out of range (" + std::to_string(d) +
                                  " >= " + std::to_string(r) + ")");
    }
    index = index * r + d;
  }
  return index;
}

}  // namespace xgft
